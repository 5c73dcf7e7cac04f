package storage

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"strings"
	"testing"

	"authorityflow/internal/datagen"
	"authorityflow/internal/graph"
	"authorityflow/internal/ir"
)

// FuzzLoad: arbitrary bytes never panic the snapshot reader — they
// either load (if they happen to be a valid snapshot) or return an
// error. Whatever loads is the authority transfer graph of a
// schema-conforming data graph (requireDerivedAdjacency) with an index
// whose BM25 weights are Eq. 3's over the lengths its postings sum to
// (requireBM25), and it does not alias the input: overwriting every
// input byte leaves its encoding unchanged (requireNoAlias). Each input
// is also read with its checksums resealed, so mutated payloads reach
// the structural checks behind the CRCs.
//
// The seeds are snapshots of a corpus of a few dozen nodes, which keeps
// each run of the target short. Go's minimizer spends up to
// -fuzzminimizetime (60 s by default) on every input that finds new
// coverage, with a number of runs quadratic in the input's length, and
// the worker fuzzes nothing meanwhile: a 10-second run needs a shorter
// bound to fuzz at all (CI passes -fuzzminimizetime 1s).
func FuzzLoad(f *testing.F) {
	ds, _, snap := snapshotOf(f, tinyDataset(f))
	f.Add(snap)
	f.Add([]byte{})
	f.Add([]byte("not a snapshot"))
	// Checksum-valid files whose edges the Builder rejects: an edge
	// whose endpoint labels break its type, and one whose type is out
	// of range.
	k, retargeted, untyped := badEdges(f, ds.Graph)
	f.Add(withEdge(f, snap, k, retargeted))
	f.Add(withEdge(f, snap, k, untyped))

	load := func(t *testing.T, data []byte) {
		data = bytes.Clone(data) // requireNoAlias overwrites it
		ds, ix, err := ReadSnapshot(data)
		if err != nil {
			return // rejected, fine
		}
		// Anything accepted must be internally consistent.
		if ds.Graph == nil || ds.Rates == nil || ix == nil {
			t.Fatal("accepted snapshot with nil parts")
		}
		if ix.NumDocs() != ds.Graph.NumNodes() {
			t.Fatalf("index covers %d documents, graph has %d nodes", ix.NumDocs(), ds.Graph.NumNodes())
		}
		requireDerivedAdjacency(t, ds.Graph)
		requireBM25(t, ix)
		requireNoAlias(t, ds, ix, data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		load(t, data)
		if sealed := resealed(data); sealed != nil {
			load(t, sealed)
		}
	})
}

// requireNoAlias fails t unless the encoding of the corpus loaded from
// data is the same before and after every byte of data is overwritten:
// a loaded corpus that still read the input would change with it.
func requireNoAlias(t testing.TB, ds *datagen.Dataset, ix *ir.Index, data []byte) {
	t.Helper()
	var before, after bytes.Buffer
	if err := WriteSnapshot(&before, ds, ix); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		data[i] = ^data[i]
	}
	if err := WriteSnapshot(&after, ds, ix); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatalf("the loaded corpus aliases its input: its %d-byte encoding changed when the input was overwritten", before.Len())
	}
}

// requireBM25 fails t unless every posting of ix has a finite,
// positive weight W(v, t) equal, within 1e-12 relative, to Eq. 3's
// with each document's length the sum of its postings' term
// frequencies. The reference is recomputed here, so it is held to a
// relative bound instead of bits; one token of length moves a weight
// by orders of magnitude more.
func requireBM25(t testing.TB, ix *ir.Index) {
	t.Helper()
	start, posts := ix.Postings()
	dl := make([]int64, ix.NumDocs())
	var total int64
	for _, p := range posts {
		dl[p.Doc] += int64(p.TF)
		total += int64(p.TF)
	}
	avdl := 1.0
	if total > 0 {
		avdl = float64(total) / float64(len(dl))
	}
	k1, b := ix.Params().K1, ix.Params().B
	for id, term := range ix.Terms() {
		idf := ix.IDF(term)
		for _, p := range posts[start[id]:start[id+1]] {
			tf := float64(p.TF)
			want := idf * ((k1 + 1) * tf / (k1*((1-b)+b*float64(dl[p.Doc])/avdl) + tf))
			got := ix.Weight(p.Doc, term)
			if !(got > 0) || math.IsInf(got, 0) || math.Abs(got-want) > 1e-12*want {
				t.Fatalf("W(%d, %q) = %v, want %v from a length of %d tokens", p.Doc, term, got, want, dl[p.Doc])
			}
		}
	}
}

// resealed returns a copy of data with the CRC of every section inside
// the file and of the section table recomputed, or nil when data has
// no section table to reseal.
func resealed(data []byte) []byte {
	if len(data) < headerSize {
		return nil
	}
	count := int(binary.LittleEndian.Uint32(data[12:]))
	if count > maxSections || headerSize+count*sectionEntrySize > len(data) {
		return nil
	}
	data = bytes.Clone(data)
	for i := 0; i < count; i++ {
		e := data[headerSize+i*sectionEntrySize:]
		off, length := binary.LittleEndian.Uint64(e[8:]), binary.LittleEndian.Uint64(e[16:])
		if length <= uint64(len(data)) && off <= uint64(len(data))-length {
			binary.LittleEndian.PutUint32(e[4:], crc32.Checksum(data[off:off+length], crcTable))
		}
	}
	resealTable(data)
	return data
}

// FuzzLoadRates: arbitrary bytes never panic the rates reader over the
// DBLP schema, and whatever it accepts is a valid assignment that
// SaveRates then LoadRates reproduces bit for bit.
func FuzzLoadRates(f *testing.F) {
	s := datagen.NewDBLPSchema().Schema
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := LoadRates(bytes.NewReader(data), s)
		if err != nil {
			return // rejected, fine
		}
		if err := r.Validate(); err != nil {
			t.Fatalf("accepted rates fail Validate: %v", err)
		}
		var saved bytes.Buffer
		if err := SaveRates(&saved, r); err != nil {
			t.Fatal(err)
		}
		back, err := LoadRates(bytes.NewReader(saved.Bytes()), s)
		if err != nil {
			t.Fatalf("saved rates do not load: %v\n%s", err, saved.Bytes())
		}
		want, got := r.Vector(), back.Vector()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: %v (%#x) after the round trip, %v (%#x) before", s.TransferTypeName(graph.TransferTypeID(i)),
					got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
	})
}

// FuzzImportTSV: arbitrary schema, nodes and edges never panic the TSV
// importer, and whatever it accepts round-trips unchanged: its export,
// imported and exported again, gives the same three byte streams.
func FuzzImportTSV(f *testing.F) {
	export := func(t *testing.T, ds *datagen.Dataset) [3][]byte {
		var schema, nodes, edges bytes.Buffer
		if err := ExportTSV(ds, &schema, &nodes, &edges); err != nil {
			t.Fatal(err)
		}
		return [3][]byte{schema.Bytes(), nodes.Bytes(), edges.Bytes()}
	}
	f.Fuzz(func(t *testing.T, schema, nodes, edges string) {
		ds, err := ImportTSV(strings.NewReader(schema), strings.NewReader(nodes), strings.NewReader(edges), "fuzz")
		if err != nil {
			return // rejected, fine
		}
		first := export(t, ds)
		again, err := ImportTSV(bytes.NewReader(first[0]), bytes.NewReader(first[1]), bytes.NewReader(first[2]), "fuzz")
		if err != nil {
			t.Fatalf("the export of an accepted import does not import: %v\n%s\n%q\n%q", err, first[0], first[1], first[2])
		}
		second := export(t, again)
		for i, name := range []string{"schema", "nodes", "edges"} {
			if !bytes.Equal(first[i], second[i]) {
				t.Fatalf("%s changed on the round trip:\n%q\nthen\n%q", name, first[i], second[i])
			}
		}
	})
}
