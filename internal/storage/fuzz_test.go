package storage

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"authorityflow/internal/datagen"
	"authorityflow/internal/graph"
)

// FuzzLoad: arbitrary bytes never panic the snapshot reader — they
// either load (if they happen to be a valid snapshot) or return an
// error. Whatever loads has the adjacency Equation 1 derives from its
// forward CSR: InArcs is the exact transpose of OutArcs and every
// InvDeg is 1/OutDeg of its source and type.
func FuzzLoad(f *testing.F) {
	// Seed with a real snapshot so the fuzzer mutates from valid input.
	ds, _, snap := snapshotFixture(f)
	f.Add(snap)
	f.Add([]byte{})
	f.Add([]byte("not a snapshot"))
	// Checksum-valid files whose stored weights disagree with the
	// forward CSR: every forward InvDeg set to 1, and a reverse half
	// with every InvDeg set to 1 in the retired sections 11 and 12.
	inflated := bytes.Clone(snap)
	for k := 0; k < ds.Graph.NumArcs(); k++ {
		binary.LittleEndian.PutUint32(inflated[arcRecord(f, inflated, k)+8:], math.Float32bits(1))
	}
	resealSection(f, inflated, secFwdArcs)
	f.Add(inflated)
	rstart, rarcs := inflatedReverse(ds.Graph)
	f.Add(withReverseSections(f, snap, rstart, rarcs))

	f.Fuzz(func(t *testing.T, data []byte) {
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
	})
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
