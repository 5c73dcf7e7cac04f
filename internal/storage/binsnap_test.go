package storage

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"

	"authorityflow/internal/core"
	"authorityflow/internal/datagen"
	"authorityflow/internal/graph"
	"authorityflow/internal/ir"
	"authorityflow/internal/rank"
)

// snapshotFixture builds a small dataset, its engine (whose corpus owns
// the inverted index), and the binary snapshot bytes for both.
func snapshotFixture(t testing.TB) (*datagen.Dataset, *core.Engine, []byte) {
	t.Helper()
	ds := testDataset(t)
	eng, err := core.NewEngine(ds.Graph, ds.Rates, core.Config{
		Rank: rank.Options{Threshold: 1e-8, MaxIters: 500},
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, ds, eng.Index()); err != nil {
		t.Fatal(err)
	}
	return ds, eng, buf.Bytes()
}

// engineFrom builds an engine from a loaded snapshot with the same rank
// options as snapshotFixture, so solver outputs are comparable bit for
// bit.
func engineFrom(t testing.TB, ds *datagen.Dataset, ix *ir.Index) *core.Engine {
	t.Helper()
	corpus, err := core.NewCorpusWithIndex(ds.Graph, ix, core.Config{
		Rank: rank.Options{Threshold: 1e-8, MaxIters: 500},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngineWith(corpus, ds.Rates)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// withDecodeMode runs f once on the zero-copy path and once on the
// portable copying decoder, so both loaders are held to the same
// behaviour on every host.
func withDecodeMode(t *testing.T, f func(t *testing.T)) {
	saved := forceCopyDecode
	defer func() { forceCopyDecode = saved }()
	for _, mode := range []struct {
		name string
		copy bool
	}{{"zerocopy", false}, {"copy", true}} {
		t.Run(mode.name, func(t *testing.T) {
			forceCopyDecode = mode.copy
			f(t)
		})
	}
}

func TestBinSnapshotRoundTripLossless(t *testing.T) {
	ds, eng, data := snapshotFixture(t)
	withDecodeMode(t, func(t *testing.T) {
		got, ix, err := ReadSnapshot(data)
		if err != nil {
			t.Fatal(err)
		}
		if got.Name != ds.Name {
			t.Errorf("name = %q, want %q", got.Name, ds.Name)
		}
		if got.Graph.NumNodes() != ds.Graph.NumNodes() || got.Graph.NumEdges() != ds.Graph.NumEdges() {
			t.Fatalf("graph shape = (%d,%d), want (%d,%d)",
				got.Graph.NumNodes(), got.Graph.NumEdges(), ds.Graph.NumNodes(), ds.Graph.NumEdges())
		}
		if got.Graph.Fingerprint() != ds.Graph.Fingerprint() {
			t.Fatalf("graph fingerprint = %#x, want %#x", got.Graph.Fingerprint(), ds.Graph.Fingerprint())
		}
		for v := 0; v < ds.Graph.NumNodes(); v++ {
			id := graph.NodeID(v)
			if got.Graph.Text(id) != ds.Graph.Text(id) {
				t.Fatalf("text mismatch at node %d", v)
			}
			if got.Graph.LabelName(id) != ds.Graph.LabelName(id) {
				t.Fatalf("label mismatch at node %d", v)
			}
			w, ww := got.Graph.OutArcs(id), ds.Graph.OutArcs(id)
			if len(w) != len(ww) {
				t.Fatalf("out-degree mismatch at node %d", v)
			}
			for i := range w {
				if w[i] != ww[i] {
					t.Fatalf("arc mismatch at node %d arc %d: %+v vs %+v", v, i, w[i], ww[i])
				}
			}
		}
		gv, wv := got.Rates.Vector(), ds.Rates.Vector()
		if len(gv) != len(wv) {
			t.Fatalf("rates length = %d, want %d", len(gv), len(wv))
		}
		for i := range gv {
			if math.Float64bits(gv[i]) != math.Float64bits(wv[i]) {
				t.Fatalf("rate %d = %v, want bit-identical %v", i, gv[i], wv[i])
			}
		}
		// Index: full vocabulary, postings, document lengths.
		want := eng.Index()
		if ix.NumDocs() != want.NumDocs() {
			t.Fatalf("index docs = %d, want %d", ix.NumDocs(), want.NumDocs())
		}
		terms, wantTerms := ix.Terms(), want.Terms()
		if len(terms) != len(wantTerms) {
			t.Fatalf("vocabulary = %d terms, want %d", len(terms), len(wantTerms))
		}
		for i, term := range terms {
			if term != wantTerms[i] {
				t.Fatalf("term %d = %q, want %q", i, term, wantTerms[i])
			}
			p, wp := ix.Postings(term), want.Postings(term)
			if len(p) != len(wp) {
				t.Fatalf("postings for %q: %d, want %d", term, len(p), len(wp))
			}
			for j := range p {
				if p[j] != wp[j] {
					t.Fatalf("posting %d for %q = %+v, want %+v", j, term, p[j], wp[j])
				}
			}
		}
	})
}

// TestBinSnapshotBitIdenticalResults is the acceptance bar for the
// snapshot path: an engine rebuilt from a snapshot must produce
// bit-identical query scores, explaining subgraphs, and reformulated
// rates — not merely approximately equal ones.
func TestBinSnapshotBitIdenticalResults(t *testing.T) {
	_, eng, data := snapshotFixture(t)
	withDecodeMode(t, func(t *testing.T) {
		got, ix, err := ReadSnapshot(data)
		if err != nil {
			t.Fatal(err)
		}
		eng2 := engineFrom(t, got, ix)
		for _, raw := range []string{"mining", "xml data", "query optimization"} {
			q := ir.ParseQuery(raw)
			res1 := rankQ(t, eng, q)
			res2 := rankQ(t, eng2, q)
			if res1.Iterations != res2.Iterations || res1.Converged != res2.Converged {
				t.Fatalf("q=%q solver behaviour diverged: (%d,%v) vs (%d,%v)",
					raw, res1.Iterations, res1.Converged, res2.Iterations, res2.Converged)
			}
			if len(res1.Scores) != len(res2.Scores) {
				t.Fatalf("q=%q score lengths differ", raw)
			}
			top := graph.NodeID(0)
			for v := range res1.Scores {
				if math.Float64bits(res1.Scores[v]) != math.Float64bits(res2.Scores[v]) {
					t.Fatalf("q=%q score at node %d not bit-identical: %v vs %v",
						raw, v, res1.Scores[v], res2.Scores[v])
				}
				if res1.Scores[v] > res1.Scores[top] {
					top = graph.NodeID(v)
				}
			}
			// Explain the top result on both engines.
			sg1, err1 := eng.Pin().ExplainCtx(context.Background(), res1, top, core.DefaultExplain())
			sg2, err2 := eng2.Pin().ExplainCtx(context.Background(), res2, top, core.DefaultExplain())
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("q=%q explain errors diverged: %v vs %v", raw, err1, err2)
			}
			if err1 == nil {
				if math.Float64bits(sg1.ExplainedScore()) != math.Float64bits(sg2.ExplainedScore()) {
					t.Fatalf("q=%q explained score not bit-identical: %v vs %v",
						raw, sg1.ExplainedScore(), sg2.ExplainedScore())
				}
				// Reformulate from the explaining subgraph on both.
				rf1, err1 := eng.Pin().ReformulateWeightedCtx(context.Background(), q, []*core.Subgraph{sg1}, nil, core.ContentAndStructure())
				rf2, err2 := eng2.Pin().ReformulateWeightedCtx(context.Background(), q, []*core.Subgraph{sg2}, nil, core.ContentAndStructure())
				if (err1 == nil) != (err2 == nil) {
					t.Fatalf("q=%q reformulate errors diverged: %v vs %v", raw, err1, err2)
				}
				if err1 == nil {
					v1, v2 := rf1.Rates.Vector(), rf2.Rates.Vector()
					for i := range v1 {
						if math.Float64bits(v1[i]) != math.Float64bits(v2[i]) {
							t.Fatalf("q=%q reformulated rate %d not bit-identical: %v vs %v",
								raw, i, v1[i], v2[i])
						}
					}
				}
			}
			eng.Release(res1)
			eng2.Release(res2)
		}
	})
}

func TestBinSnapshotFileRoundTrip(t *testing.T) {
	ds, eng, _ := snapshotFixture(t)
	path := filepath.Join(t.TempDir(), "corpus.snap")
	if err := WriteSnapshotFile(path, ds, eng.Index()); err != nil {
		t.Fatal(err)
	}
	got, ix, err := ReadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Graph.Fingerprint() != ds.Graph.Fingerprint() {
		t.Fatalf("fingerprint mismatch after file round trip")
	}
	if ix.NumDocs() != eng.Index().NumDocs() {
		t.Fatalf("index docs mismatch after file round trip")
	}
	// No stray temp files left behind by the atomic write.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("expected only the snapshot in the temp dir, found %d entries", len(entries))
	}
}

// --- hostile-file helpers -------------------------------------------------

// sectionEntry returns the byte offset of section id's table entry.
func sectionEntry(t *testing.T, data []byte, id uint32) int {
	t.Helper()
	count := int(binary.LittleEndian.Uint32(data[12:]))
	for i := 0; i < count; i++ {
		off := headerSize + i*sectionEntrySize
		if binary.LittleEndian.Uint32(data[off:]) == id {
			return off
		}
	}
	t.Fatalf("section %d not found", id)
	return 0
}

// resealTable recomputes the section-table CRC in the header after a
// deliberate table mutation, so the corruption under test — not the
// table checksum — is what the loader trips on.
func resealTable(data []byte) {
	count := int(binary.LittleEndian.Uint32(data[12:]))
	table := data[headerSize : headerSize+count*sectionEntrySize]
	binary.LittleEndian.PutUint32(data[16:], crc32.Checksum(table, crcTable))
}

// resealSection recomputes section id's payload CRC (and the table CRC)
// after a deliberate payload mutation.
func resealSection(t *testing.T, data []byte, id uint32) {
	t.Helper()
	e := sectionEntry(t, data, id)
	off := binary.LittleEndian.Uint64(data[e+8:])
	length := binary.LittleEndian.Uint64(data[e+16:])
	binary.LittleEndian.PutUint32(data[e+4:], crc32.Checksum(data[off:off+length], crcTable))
	resealTable(data)
}

func TestBinSnapshotHostileFiles(t *testing.T) {
	_, _, pristine := snapshotFixture(t)

	cases := []struct {
		name    string
		mutate  func(t *testing.T, data []byte) []byte
		wantErr error // nil means "any error is acceptable"
	}{
		{"empty file", func(t *testing.T, d []byte) []byte {
			return nil
		}, ErrSnapshotTruncated},
		{"short header", func(t *testing.T, d []byte) []byte {
			return d[:headerSize-1]
		}, ErrSnapshotTruncated},
		{"bad magic", func(t *testing.T, d []byte) []byte {
			d[0] ^= 0xff
			return d
		}, ErrSnapshotMagic},
		{"gob snapshot bytes", func(t *testing.T, d []byte) []byte {
			return []byte("\x1f\x8b\x08\x00 definitely not a binary snapshot, padded out")
		}, ErrSnapshotMagic},
		{"future version", func(t *testing.T, d []byte) []byte {
			binary.LittleEndian.PutUint32(d[8:], binSnapshotVersion+1)
			return d
		}, ErrSnapshotVersion},
		{"truncated body", func(t *testing.T, d []byte) []byte {
			return d[:len(d)-1]
		}, ErrSnapshotTruncated},
		{"trailing garbage", func(t *testing.T, d []byte) []byte {
			return append(d, 0xee)
		}, ErrSnapshotCorrupt},
		{"zero section count", func(t *testing.T, d []byte) []byte {
			binary.LittleEndian.PutUint32(d[12:], 0)
			return d
		}, ErrSnapshotCorrupt},
		{"implausible section count", func(t *testing.T, d []byte) []byte {
			binary.LittleEndian.PutUint32(d[12:], maxSections+1)
			return d
		}, ErrSnapshotCorrupt},
		{"flipped table checksum", func(t *testing.T, d []byte) []byte {
			d[16] ^= 0x01
			return d
		}, ErrSnapshotChecksum},
		{"flipped table byte", func(t *testing.T, d []byte) []byte {
			d[headerSize+1] ^= 0x40
			return d
		}, ErrSnapshotChecksum},
		{"flipped payload byte", func(t *testing.T, d []byte) []byte {
			e := sectionEntry(t, d, secFwdArcs)
			off := binary.LittleEndian.Uint64(d[e+8:])
			d[off] ^= 0x80
			return d
		}, ErrSnapshotChecksum},
		{"section offset out of bounds", func(t *testing.T, d []byte) []byte {
			e := sectionEntry(t, d, secRates)
			binary.LittleEndian.PutUint64(d[e+8:], uint64(len(d)))
			resealTable(d)
			return d
		}, ErrSnapshotCorrupt},
		{"section length out of bounds", func(t *testing.T, d []byte) []byte {
			e := sectionEntry(t, d, secRates)
			binary.LittleEndian.PutUint64(d[e+16:], uint64(len(d))+8)
			resealTable(d)
			return d
		}, ErrSnapshotCorrupt},
		{"section overlapping table", func(t *testing.T, d []byte) []byte {
			e := sectionEntry(t, d, secRates)
			binary.LittleEndian.PutUint64(d[e+8:], 0)
			resealTable(d)
			return d
		}, ErrSnapshotCorrupt},
		{"duplicate section id", func(t *testing.T, d []byte) []byte {
			// Relabel secMeta's entry as secRates: either the duplicate
			// or the then-missing meta section must be rejected.
			e := sectionEntry(t, d, secMeta)
			binary.LittleEndian.PutUint32(d[e:], secRates)
			// The payload CRC still matches the payload, so only the
			// table digest needs resealing.
			resealTable(d)
			return d
		}, ErrSnapshotCorrupt},
		{"missing section", func(t *testing.T, d []byte) []byte {
			e := sectionEntry(t, d, secDocLen)
			binary.LittleEndian.PutUint32(d[e:], 63) // unknown id
			resealTable(d)
			return d
		}, ErrSnapshotCorrupt},
		{"lying node count", func(t *testing.T, d []byte) []byte {
			// Bump numNodes in the meta payload and reseal every
			// checksum: the loader must still notice the CSR arrays do
			// not line up with the claimed shape.
			e := sectionEntry(t, d, secMeta)
			off := binary.LittleEndian.Uint64(d[e+8:])
			nameLen := binary.LittleEndian.Uint32(d[off:])
			nodesOff := off + 4 + uint64(nameLen)
			n := binary.LittleEndian.Uint64(d[nodesOff:])
			binary.LittleEndian.PutUint64(d[nodesOff:], n+1)
			resealSection(t, d, secMeta)
			return d
		}, ErrSnapshotCorrupt},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := tc.mutate(t, bytes.Clone(pristine))
			withDecodeMode(t, func(t *testing.T) {
				ds, ix, err := ReadSnapshot(data)
				if err == nil {
					t.Fatal("hostile snapshot loaded without error")
				}
				if ds != nil || ix != nil {
					t.Fatal("hostile snapshot returned non-nil results alongside the error")
				}
				if tc.wantErr != nil && !errors.Is(err, tc.wantErr) {
					t.Fatalf("err = %v, want errors.Is(%v)", err, tc.wantErr)
				}
			})
		})
	}
}

// TestBinSnapshotTruncationSweep chops the file at many byte boundaries
// — every prefix must produce a typed error and must never panic, on
// both decode paths.
func TestBinSnapshotTruncationSweep(t *testing.T) {
	_, _, data := snapshotFixture(t)
	step := len(data)/61 + 1
	withDecodeMode(t, func(t *testing.T) {
		for cut := 0; cut < len(data); cut += step {
			prefix := data[:cut]
			ds, ix, err := ReadSnapshot(prefix)
			if err == nil {
				t.Fatalf("truncation at %d/%d bytes loaded without error", cut, len(data))
			}
			if ds != nil || ix != nil {
				t.Fatalf("truncation at %d returned non-nil results", cut)
			}
		}
	})
}

// rankQ is one uncached authority solve of q on eng's current state.
func rankQ(t testing.TB, eng *core.Engine, q *ir.Query) *core.RankResult {
	t.Helper()
	rs, err := eng.Pin().Solve(context.Background(), core.SolveSpec{Queries: []*ir.Query{q}})
	if err != nil {
		t.Fatal(err)
	}
	return rs[0]
}
