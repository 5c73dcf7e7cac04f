package storage

import "testing"

// FuzzLoad: arbitrary bytes never panic the snapshot reader — they
// either load (if they happen to be a valid snapshot) or return an
// error.
func FuzzLoad(f *testing.F) {
	// Seed with a real snapshot so the fuzzer mutates from valid input.
	_, _, snap := snapshotFixture(f)
	f.Add(snap)
	f.Add([]byte{})
	f.Add([]byte("not a snapshot"))

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
	})
}
