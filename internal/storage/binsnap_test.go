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
	"slices"
	"strings"
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
	return snapshotOf(t, testDataset(t))
}

// snapshotOf is snapshotFixture over ds.
func snapshotOf(t testing.TB, ds *datagen.Dataset) (*datagen.Dataset, *core.Engine, []byte) {
	t.Helper()
	eng, err := core.NewEngine(ds.Graph, ds.Rates, core.Config{
		Rank: rank.Options{Threshold: 1e-8, MaxIters: 500},
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, ds, eng.Pin().Corpus().Index()); err != nil {
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

// withLoadMode runs f once for each way a caller may treat its buffer
// after ReadSnapshot returns, and hands f the matching load. Under
// "copy" the caller keeps its bytes as they are. Under "zerocopy" it
// keeps no copy: load decodes a private clone and overwrites every byte
// of it as soon as the decoder returns, so whatever f checks after the
// load fails if the loaded corpus still reads from its input, as the
// retired aliasing decoder's did.
func withLoadMode(t *testing.T, f func(t *testing.T, load func([]byte) (*datagen.Dataset, *ir.Index, error))) {
	t.Run("zerocopy", func(t *testing.T) {
		f(t, func(data []byte) (*datagen.Dataset, *ir.Index, error) {
			buf := bytes.Clone(data)
			ds, ix, err := ReadSnapshot(buf)
			for i := range buf {
				buf[i] = 0xA5
			}
			return ds, ix, err
		})
	})
	t.Run("copy", func(t *testing.T) { f(t, ReadSnapshot) })
}

func TestBinSnapshotRoundTripLossless(t *testing.T) {
	ds, eng, data := snapshotFixture(t)
	withLoadMode(t, func(t *testing.T, load func([]byte) (*datagen.Dataset, *ir.Index, error)) {
		got, ix, err := load(data)
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
		// Index: full vocabulary, postings, BM25 weights.
		want := eng.Pin().Corpus().Index()
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
		}
		start, posts := ix.Postings()
		wantStart, wantPosts := want.Postings()
		if !slices.Equal(start, wantStart) || !slices.Equal(posts, wantPosts) {
			t.Fatalf("postings CSR differs: %d offsets/%d postings, want %d/%d", len(start), len(posts), len(wantStart), len(wantPosts))
		}
		for id, term := range terms {
			for _, p := range posts[start[id]:start[id+1]] {
				if got, w := ix.Weight(p.Doc, term), want.Weight(p.Doc, term); math.Float64bits(got) != math.Float64bits(w) {
					t.Fatalf("W(%d, %q) = %v, want bit-identical %v", p.Doc, term, got, w)
				}
			}
		}
	})
}

// TestBinSnapshotRewriteIdentical: a loaded snapshot written again is
// the same file, byte for byte.
func TestBinSnapshotRewriteIdentical(t *testing.T) {
	_, _, data := snapshotFixture(t)
	withLoadMode(t, func(t *testing.T, load func([]byte) (*datagen.Dataset, *ir.Index, error)) {
		ds, ix, err := load(data)
		if err != nil {
			t.Fatal(err)
		}
		var again bytes.Buffer
		if err := WriteSnapshot(&again, ds, ix); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), data) {
			t.Fatalf("rewritten snapshot differs: %d bytes, read %d", again.Len(), len(data))
		}
	})
}

// TestBinSnapshotBitIdenticalResults is the acceptance bar for the
// snapshot path: an engine rebuilt from a snapshot must produce
// bit-identical query scores, explaining subgraphs, and reformulated
// rates — not merely approximately equal ones.
func TestBinSnapshotBitIdenticalResults(t *testing.T) {
	_, eng, data := snapshotFixture(t)
	withLoadMode(t, func(t *testing.T, load func([]byte) (*datagen.Dataset, *ir.Index, error)) {
		got, ix, err := load(data)
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
	if err := WriteSnapshotFile(path, ds, eng.Pin().Corpus().Index()); err != nil {
		t.Fatal(err)
	}
	got, ix, err := ReadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Graph.Fingerprint() != ds.Graph.Fingerprint() {
		t.Fatalf("fingerprint mismatch after file round trip")
	}
	if ix.NumDocs() != eng.Pin().Corpus().Index().NumDocs() {
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
func sectionEntry(t testing.TB, data []byte, id uint32) int {
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
func resealSection(t testing.TB, data []byte, id uint32) {
	t.Helper()
	e := sectionEntry(t, data, id)
	off := binary.LittleEndian.Uint64(data[e+8:])
	length := binary.LittleEndian.Uint64(data[e+16:])
	binary.LittleEndian.PutUint32(data[e+4:], crc32.Checksum(data[off:off+length], crcTable))
	resealTable(data)
}

// edgeRecord returns the byte offset of data edge k's 12-byte record.
func edgeRecord(t testing.TB, data []byte, k int) int {
	t.Helper()
	e := sectionEntry(t, data, secEdges)
	return int(binary.LittleEndian.Uint64(data[e+8:])) + 12*k
}

// withEdge returns a copy of data whose edge k is e, resealed.
func withEdge(t testing.TB, data []byte, k int, e graph.Edge) []byte {
	t.Helper()
	data = bytes.Clone(data)
	rec := edgeRecord(t, data, k)
	binary.LittleEndian.PutUint32(data[rec:], uint32(e.From))
	binary.LittleEndian.PutUint32(data[rec+4:], uint32(e.To))
	binary.LittleEndian.PutUint32(data[rec+8:], uint32(e.Type))
	resealSection(t, data, secEdges)
	return data
}

// badEdges returns g's first hasInstance edge (Conference->Year) with
// its index in Edges, that edge retargeted at a Paper, and that edge
// given an edge type the schema lacks.
func badEdges(t testing.TB, g *graph.Graph) (k int, retargeted, untyped graph.Edge) {
	t.Helper()
	s := g.Schema()
	hasInstance, ok1 := s.EdgeTypeByRole("hasInstance")
	paper, ok2 := s.TypeByName("Paper")
	if !ok1 || !ok2 {
		t.Fatal("not a DBLP schema")
	}
	papers := g.NodesOfType(paper)
	for k, e := range g.Edges() {
		if e.Type == hasInstance && len(papers) > 0 {
			retargeted, untyped = e, e
			retargeted.To = papers[0]
			untyped.Type = graph.EdgeTypeID(s.NumEdgeTypes())
			return k, retargeted, untyped
		}
	}
	t.Fatal("no hasInstance edge, or no Paper")
	return
}

// requireDerivedAdjacency fails t unless g is the authority transfer
// graph of a schema-conforming data graph: every arc's endpoint labels
// are the ones its edge type declares, every arc u->v of a type has as
// many twins v->u of the other direction as it has copies, every
// forward arc's InvDeg is 1/OutDeg of its source and type, and g's
// reverse CSR is exactly the transpose of its forward CSR — sources
// ascending, each source's arcs in forward order.
func requireDerivedAdjacency(t testing.TB, g *graph.Graph) {
	t.Helper()
	s := g.Schema()
	type key struct {
		from, to graph.NodeID
		t        graph.TransferTypeID
	}
	copies := map[key]int{}
	want := make([][]graph.Arc, g.NumNodes())
	for u := range want {
		for _, a := range g.OutArcs(graph.NodeID(u)) {
			et := s.EdgeTypeInfo(a.Type.EdgeType())
			from, to := graph.NodeID(u), a.To
			if a.Type.Dir() == graph.Backward {
				from, to = to, from
			}
			if g.Label(from) != et.From || g.Label(to) != et.To {
				t.Fatalf("arc %d->%d of type %s joins %s to %s", u, a.To, s.TransferTypeName(a.Type), g.LabelName(from), g.LabelName(to))
			}
			copies[key{graph.NodeID(u), a.To, a.Type}]++

			inv := float32(1) / float32(g.OutDeg(graph.NodeID(u), a.Type))
			if math.Float32bits(a.InvDeg) != math.Float32bits(inv) {
				t.Fatalf("arc %d->%d of type %d has InvDeg %v, want %v", u, a.To, a.Type, a.InvDeg, inv)
			}
			want[a.To] = append(want[a.To], graph.Arc{To: graph.NodeID(u), Type: a.Type, InvDeg: a.InvDeg})
		}
	}
	for k, n := range copies {
		if twins := copies[key{k.to, k.from, k.t ^ 1}]; twins != n {
			t.Fatalf("arc %d->%d of type %d has %d copies but %d twins", k.from, k.to, k.t, n, twins)
		}
	}
	for v, w := range want {
		if got := g.InArcs(graph.NodeID(v)); !slices.Equal(got, w) {
			t.Fatalf("InArcs(%d) = %v, want the transpose %v", v, got, w)
		}
	}
}

func TestBinSnapshotHostileFiles(t *testing.T) {
	ds, _, pristine := snapshotFixture(t)
	bad, retargeted, untyped := badEdges(t, ds.Graph)

	cases := []struct {
		name    string
		mutate  func(t *testing.T, data []byte) []byte
		wantErr error  // nil means "any error is acceptable"
		loads   bool   // the file must load, with its adjacency derived
		msg     string // the error must contain this, when set
	}{
		{"empty file", func(t *testing.T, d []byte) []byte {
			return nil
		}, ErrSnapshotTruncated, false, ""},
		{"short header", func(t *testing.T, d []byte) []byte {
			return d[:headerSize-1]
		}, ErrSnapshotTruncated, false, ""},
		{"bad magic", func(t *testing.T, d []byte) []byte {
			d[0] ^= 0xff
			return d
		}, ErrSnapshotMagic, false, ""},
		{"gob snapshot bytes", func(t *testing.T, d []byte) []byte {
			return []byte("\x1f\x8b\x08\x00 definitely not a binary snapshot, padded out")
		}, ErrSnapshotMagic, false, ""},
		{"future version", func(t *testing.T, d []byte) []byte {
			binary.LittleEndian.PutUint32(d[8:], binSnapshotVersion+1)
			return d
		}, ErrSnapshotVersion, false, ""},
		{"version-1 header", func(t *testing.T, d []byte) []byte {
			binary.LittleEndian.PutUint32(d[8:], 1)
			return d
		}, ErrSnapshotVersion, false, "datagen"},
		{"version-2 header", func(t *testing.T, d []byte) []byte {
			binary.LittleEndian.PutUint32(d[8:], 2)
			return d
		}, ErrSnapshotVersion, false, "datagen"},
		{"truncated body", func(t *testing.T, d []byte) []byte {
			return d[:len(d)-1]
		}, ErrSnapshotTruncated, false, ""},
		{"trailing garbage", func(t *testing.T, d []byte) []byte {
			return append(d, 0xee)
		}, ErrSnapshotCorrupt, false, ""},
		{"zero section count", func(t *testing.T, d []byte) []byte {
			binary.LittleEndian.PutUint32(d[12:], 0)
			return d
		}, ErrSnapshotCorrupt, false, ""},
		{"implausible section count", func(t *testing.T, d []byte) []byte {
			binary.LittleEndian.PutUint32(d[12:], maxSections+1)
			return d
		}, ErrSnapshotCorrupt, false, ""},
		{"flipped table checksum", func(t *testing.T, d []byte) []byte {
			d[16] ^= 0x01
			return d
		}, ErrSnapshotChecksum, false, ""},
		{"flipped table byte", func(t *testing.T, d []byte) []byte {
			d[headerSize+1] ^= 0x40
			return d
		}, ErrSnapshotChecksum, false, ""},
		{"flipped payload byte", func(t *testing.T, d []byte) []byte {
			e := sectionEntry(t, d, secEdges)
			off := binary.LittleEndian.Uint64(d[e+8:])
			d[off] ^= 0x80
			return d
		}, ErrSnapshotChecksum, false, ""},
		{"section offset out of bounds", func(t *testing.T, d []byte) []byte {
			e := sectionEntry(t, d, secRates)
			binary.LittleEndian.PutUint64(d[e+8:], uint64(len(d)))
			resealTable(d)
			return d
		}, ErrSnapshotCorrupt, false, ""},
		{"section length out of bounds", func(t *testing.T, d []byte) []byte {
			e := sectionEntry(t, d, secRates)
			binary.LittleEndian.PutUint64(d[e+16:], uint64(len(d))+8)
			resealTable(d)
			return d
		}, ErrSnapshotCorrupt, false, ""},
		{"section overlapping table", func(t *testing.T, d []byte) []byte {
			e := sectionEntry(t, d, secRates)
			binary.LittleEndian.PutUint64(d[e+8:], 0)
			resealTable(d)
			return d
		}, ErrSnapshotCorrupt, false, ""},
		{"duplicate section id", func(t *testing.T, d []byte) []byte {
			// Relabel secMeta's entry as secRates: either the duplicate
			// or the then-missing meta section must be rejected.
			e := sectionEntry(t, d, secMeta)
			binary.LittleEndian.PutUint32(d[e:], secRates)
			// The payload CRC still matches the payload, so only the
			// table digest needs resealing.
			resealTable(d)
			return d
		}, ErrSnapshotCorrupt, false, ""},
		{"missing section", func(t *testing.T, d []byte) []byte {
			e := sectionEntry(t, d, secIdxMeta)
			binary.LittleEndian.PutUint32(d[e:], 63) // unknown id
			resealTable(d)
			return d
		}, ErrSnapshotCorrupt, false, ""},
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
		}, ErrSnapshotCorrupt, false, ""},
		{"string table count of 2^32-1", func(t *testing.T, d []byte) []byte {
			// count+1 wraps to 0 in 32 bits: the table must not pass
			// as an empty one.
			e := sectionEntry(t, d, secNodeTypes)
			binary.LittleEndian.PutUint32(d[binary.LittleEndian.Uint64(d[e+8:]):], math.MaxUint32)
			resealSection(t, d, secNodeTypes)
			return d
		}, ErrSnapshotCorrupt, false, "claims 4294967295 entries"},
		{"lying edge count", func(t *testing.T, d []byte) []byte {
			e := sectionEntry(t, d, secMeta)
			off := binary.LittleEndian.Uint64(d[e+8:])
			nameLen := binary.LittleEndian.Uint32(d[off:])
			edgesOff := off + 4 + uint64(nameLen) + 8
			binary.LittleEndian.PutUint64(d[edgesOff:], binary.LittleEndian.Uint64(d[edgesOff:])-1)
			resealSection(t, d, secMeta)
			return d
		}, ErrSnapshotCorrupt, false, "meta claims"},
		{"BM25 b outside [0, 1]", func(t *testing.T, d []byte) []byte {
			e := sectionEntry(t, d, secIdxMeta)
			off := binary.LittleEndian.Uint64(d[e+8:])
			binary.LittleEndian.PutUint64(d[off+8:], math.Float64bits(2))
			resealSection(t, d, secIdxMeta)
			return d
		}, ErrSnapshotCorrupt, false, "BM25 parameters"},
		{"version-2 index meta", func(t *testing.T, d []byte) []byte {
			// Section 14 of version 2 led with totalLen: 32 bytes.
			e := sectionEntry(t, d, secIdxMeta)
			binary.LittleEndian.PutUint64(d[e+16:], 32)
			resealSection(t, d, secIdxMeta)
			return d
		}, ErrSnapshotCorrupt, false, "want 24"},
		{"edge section length not a multiple of 12", func(t *testing.T, d []byte) []byte {
			e := sectionEntry(t, d, secEdges)
			binary.LittleEndian.PutUint64(d[e+16:], binary.LittleEndian.Uint64(d[e+16:])-4)
			resealSection(t, d, secEdges)
			return d
		}, ErrSnapshotCorrupt, false, "not a multiple of 12"},
		{"edge retargeted across its type's labels", func(t *testing.T, d []byte) []byte {
			return withEdge(t, d, bad, retargeted)
		}, ErrSnapshotCorrupt, false, "does not conform to type Conference-hasInstance->Year"},
		{"edge type out of range", func(t *testing.T, d []byte) []byte {
			return withEdge(t, d, bad, untyped)
		}, ErrSnapshotCorrupt, false, "unknown edge type"},
		{"edges in another order", func(t *testing.T, d []byte) []byte {
			e := sectionEntry(t, d, secEdges)
			off := int(binary.LittleEndian.Uint64(d[e+8:]))
			payload := d[off : off+int(binary.LittleEndian.Uint64(d[e+16:]))]
			recs := make([][12]byte, len(payload)/12)
			for i := range recs {
				recs[len(recs)-1-i] = [12]byte(payload[12*i:])
			}
			for i, r := range recs {
				copy(payload[12*i:], r[:])
			}
			resealSection(t, d, secEdges)
			return d
		}, nil, true, ""},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := tc.mutate(t, bytes.Clone(pristine))
			withLoadMode(t, func(t *testing.T, load func([]byte) (*datagen.Dataset, *ir.Index, error)) {
				got, ix, err := load(data)
				if tc.loads {
					if err != nil {
						t.Fatal(err)
					}
					requireDerivedAdjacency(t, got.Graph)
					if got.Graph.Fingerprint() != ds.Graph.Fingerprint() {
						t.Fatalf("fingerprint %#x, want %#x", got.Graph.Fingerprint(), ds.Graph.Fingerprint())
					}
					return
				}
				if err == nil {
					t.Fatal("hostile snapshot loaded without error")
				}
				if got != nil || ix != nil {
					t.Fatal("hostile snapshot returned non-nil results alongside the error")
				}
				if tc.wantErr != nil && !errors.Is(err, tc.wantErr) {
					t.Fatalf("err = %v, want errors.Is(%v)", err, tc.wantErr)
				}
				if !strings.Contains(err.Error(), tc.msg) {
					t.Fatalf("err = %v, want one containing %q", err, tc.msg)
				}
			})
		})
	}
}

// TestBinSnapshotTruncationSweep chops the file at many byte boundaries
// — every prefix must produce a typed error and must never panic.
func TestBinSnapshotTruncationSweep(t *testing.T) {
	_, _, data := snapshotFixture(t)
	step := len(data)/61 + 1
	withLoadMode(t, func(t *testing.T, load func([]byte) (*datagen.Dataset, *ir.Index, error)) {
		for cut := 0; cut < len(data); cut += step {
			prefix := data[:cut]
			ds, ix, err := load(prefix)
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
