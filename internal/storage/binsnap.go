// Package storage persists corpora and exports explaining subgraphs.
// A corpus (graph + rates + inverted index) has ONE on-disk form, the
// versioned binary snapshot below; trained rates save as JSON, TSV
// import/export moves external data in and out, and explaining
// subgraphs export to JSON (for programmatic consumers, mirroring the
// paper's deployed web demo), Graphviz DOT and HTML (for display to the
// user, the Section 4 motivation).
//
// The binary snapshot is the cold-start and corpus-swap substrate of
// the generational corpus store. It persists the data graph as the
// Builder is given it — the node/type tables and the data edges — and
// the final frozen inverted index, as flat little-endian sections, each
// offset-indexed and CRC-checksummed in the header. The loader builds
// the graph with graph.FromEdges, the Builder's own construction path,
// so a loaded graph passes the Builder's conformance checks and its
// adjacency cannot differ from the built one. After checksums and
// structural invariants are verified, the stored postings go to
// ir.FromParts as they are, so cold start skips tokenization and
// indexing entirely. There is one codec: every number is encoded and
// decoded byte by byte in little-endian order on any host, and a
// loaded corpus copies what it keeps out of the file.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"slices"

	"authorityflow/internal/datagen"
	"authorityflow/internal/graph"
	"authorityflow/internal/ir"
)

// Typed load errors: hostile or damaged snapshot files must fail with
// one of these (wrapped with detail), never panic. Callers branch with
// errors.Is.
var (
	// ErrSnapshotMagic means the file does not start with the binary
	// snapshot magic (e.g. it is a pre-AFQSNAP1 gob dataset file or not
	// a snapshot at all).
	ErrSnapshotMagic = errors.New("storage: not an afq binary snapshot (bad magic)")
	// ErrSnapshotVersion means the format version is not supported by
	// this release: a version-1 file stores arcs instead of edges, a
	// version-2 file stores document lengths in bytes, and either must
	// be regenerated (datagen -out, or afq snapshot).
	ErrSnapshotVersion = errors.New("storage: unsupported binary snapshot version")
	// ErrSnapshotTruncated means the file is shorter than its header
	// claims.
	ErrSnapshotTruncated = errors.New("storage: binary snapshot truncated")
	// ErrSnapshotChecksum means a section's (or the section table's)
	// CRC32 does not match its payload.
	ErrSnapshotChecksum = errors.New("storage: binary snapshot checksum mismatch")
	// ErrSnapshotCorrupt means the file decodes but violates a
	// structural invariant: out-of-bounds section offsets, unsorted
	// string tables, CSR arrays that do not line up, and so on.
	ErrSnapshotCorrupt = errors.New("storage: binary snapshot corrupt")
)

// Wire layout (all integers little-endian):
//
//	header (32 bytes):
//	  magic    [8]byte  "AFQSNAP1"
//	  version  uint32   binSnapshotVersion
//	  count    uint32   number of sections
//	  tableCRC uint32   CRC32-C of the section table bytes
//	  _        uint32   reserved (zero)
//	  fileSize uint64   total file length
//	section table (count × 24 bytes):
//	  id     uint32
//	  crc    uint32    CRC32-C of the section payload
//	  offset uint64    absolute file offset (8-aligned)
//	  length uint64    payload length in bytes
//	payloads, each padded to 8-byte alignment.
const (
	binSnapshotVersion = 3
	headerSize         = 32
	sectionEntrySize   = 24
	maxSections        = 64
)

var binMagic = [8]byte{'A', 'F', 'Q', 'S', 'N', 'A', 'P', '1'}

// Section IDs. Homogeneous arrays get their own section so the loader
// decodes each without an inner framing pass. IDs 9 to 13 are retired,
// so they must not be given a new meaning: version-1 files held the
// forward and reverse CSR in 9 to 12, and version-2 files the document
// lengths in 13.
const (
	secMeta      = 1  // name, node/edge counts
	secNodeTypes = 2  // string table of node type names
	secEdgeTypes = 3  // {from,to} pairs + string table of roles
	secRates     = 4  // []float64, one rate per transfer type
	secLabels    = 5  // []int32, node type per node
	secAttrStart = 6  // []int32, len n+1, prefix over attr entries
	secAttrEntry = 7  // []uint32, {nameOff,nameLen,valOff,valLen} per attr
	secAttrBlob  = 8  // raw attribute name/value bytes
	secIdxMeta   = 14 // BM25 params
	secTerms     = 15 // string table of the full vocabulary (sorted)
	secPostStart = 16 // []int32, len terms+1, prefix over postings
	secPostings  = 17 // []ir.Posting, 8 bytes each
	secEdges     = 18 // {from,to,type} uint32 triples, one per data edge
)

// requiredSections are the IDs every snapshot carries.
var requiredSections = [...]uint32{1, 2, 3, 4, 5, 6, 7, 8, 14, 15, 16, 17, 18}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

func align8(n int) int { return (n + 7) &^ 7 }

// ---- encoding helpers ----

func appendU32(b []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(b, v)
}

func appendU64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

func appendI32s(b []byte, vs []int32) []byte {
	b = slices.Grow(b, 4*len(vs))
	for _, v := range vs {
		b = appendU32(b, uint32(v))
	}
	return b
}

func appendF64s(b []byte, vs []float64) []byte {
	b = slices.Grow(b, 8*len(vs))
	for _, v := range vs {
		b = appendU64(b, math.Float64bits(v))
	}
	return b
}

func appendEdges(b []byte, es []graph.Edge) []byte {
	b = slices.Grow(b, 12*len(es))
	for _, e := range es {
		b = appendU32(b, uint32(e.From))
		b = appendU32(b, uint32(e.To))
		b = appendU32(b, uint32(e.Type))
	}
	return b
}

func appendPostings(b []byte, ps []ir.Posting) []byte {
	b = slices.Grow(b, 8*len(ps))
	for _, p := range ps {
		b = appendU32(b, uint32(p.Doc))
		b = appendU32(b, uint32(p.TF))
	}
	return b
}

// appendStringTable encodes count, count+1 ascending blob offsets, and
// the concatenated blob.
func appendStringTable(b []byte, ss []string) []byte {
	b = appendU32(b, uint32(len(ss)))
	off := uint32(0)
	b = appendU32(b, off)
	for _, s := range ss {
		off += uint32(len(s))
		b = appendU32(b, off)
	}
	for _, s := range ss {
		b = append(b, s...)
	}
	return b
}

// ---- decoding helpers ----

func decodeI32s(b []byte) ([]int32, error) {
	if len(b)%4 != 0 {
		return nil, fmt.Errorf("%w: int32 section length %d not a multiple of 4", ErrSnapshotCorrupt, len(b))
	}
	n := len(b) / 4
	if n == 0 {
		return nil, nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return out, nil
}

func decodeF64s(b []byte) ([]float64, error) {
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("%w: float64 section length %d not a multiple of 8", ErrSnapshotCorrupt, len(b))
	}
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out, nil
}

func decodeEdges(b []byte) ([]graph.Edge, error) {
	if len(b)%12 != 0 {
		return nil, fmt.Errorf("%w: edge section length %d not a multiple of 12", ErrSnapshotCorrupt, len(b))
	}
	out := make([]graph.Edge, len(b)/12)
	for i := range out {
		rec := b[i*12:]
		out[i] = graph.Edge{
			From: graph.NodeID(int32(binary.LittleEndian.Uint32(rec))),
			To:   graph.NodeID(int32(binary.LittleEndian.Uint32(rec[4:]))),
			Type: graph.EdgeTypeID(int32(binary.LittleEndian.Uint32(rec[8:]))),
		}
	}
	return out, nil
}

func decodePostings(b []byte) ([]ir.Posting, error) {
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("%w: posting section length %d not a multiple of 8", ErrSnapshotCorrupt, len(b))
	}
	n := len(b) / 8
	if n == 0 {
		return nil, nil
	}
	out := make([]ir.Posting, n)
	for i := range out {
		rec := b[i*8:]
		out[i] = ir.Posting{
			Doc: int32(binary.LittleEndian.Uint32(rec)),
			TF:  int32(binary.LittleEndian.Uint32(rec[4:])),
		}
	}
	return out, nil
}

// decodeStringTable parses and bounds-checks an appendStringTable
// payload.
func decodeStringTable(b []byte, what string) ([]string, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("%w: %s table too short", ErrSnapshotCorrupt, what)
	}
	count := binary.LittleEndian.Uint32(b)
	if uint64(len(b)) < 4+(uint64(count)+1)*4 {
		return nil, fmt.Errorf("%w: %s table claims %d entries but is %d bytes", ErrSnapshotCorrupt, what, count, len(b))
	}
	n := int(count)
	offs := b[4 : 4+(n+1)*4]
	blob := string(b[4+(n+1)*4:]) // one copy; the strings slice it
	out := make([]string, n)
	prev := uint32(0)
	for i := 0; i <= n; i++ {
		off := binary.LittleEndian.Uint32(offs[i*4:])
		if off < prev || off > uint32(len(blob)) {
			return nil, fmt.Errorf("%w: %s table offset %d out of order or out of bounds", ErrSnapshotCorrupt, what, off)
		}
		if i > 0 {
			out[i-1] = blob[prev:off]
		}
		prev = off
	}
	if prev != uint32(len(blob)) {
		return nil, fmt.Errorf("%w: %s table blob has %d trailing bytes", ErrSnapshotCorrupt, what, uint32(len(blob))-prev)
	}
	return out, nil
}

// ---- writer ----

type binSection struct {
	id      uint32
	payload []byte
}

// WriteSnapshot writes the dataset and its prebuilt inverted index in
// the binary snapshot format. The index must cover exactly the graph's
// nodes (build it with the same BM25 parameters the serving corpus
// will use — they are persisted and reapplied on load).
func WriteSnapshot(w io.Writer, ds *datagen.Dataset, ix *ir.Index) error {
	g := ds.Graph
	if ix.NumDocs() != g.NumNodes() {
		return fmt.Errorf("storage: index covers %d documents, graph has %d nodes", ix.NumDocs(), g.NumNodes())
	}
	s := g.Schema()

	var meta []byte
	meta = appendU32(meta, uint32(len(ds.Name)))
	meta = append(meta, ds.Name...)
	meta = appendU64(meta, uint64(g.NumNodes()))
	meta = appendU64(meta, uint64(g.NumEdges()))

	nodeTypes := make([]string, s.NumNodeTypes())
	for t := range nodeTypes {
		nodeTypes[t] = s.TypeName(graph.TypeID(t))
	}
	var edgeTypes []byte
	edgeTypes = appendU32(edgeTypes, uint32(s.NumEdgeTypes()))
	roles := make([]string, s.NumEdgeTypes())
	for e := range roles {
		et := s.EdgeTypeInfo(graph.EdgeTypeID(e))
		edgeTypes = appendU32(edgeTypes, uint32(et.From))
		edgeTypes = appendU32(edgeTypes, uint32(et.To))
		roles[e] = et.Role
	}
	edgeTypes = appendStringTable(edgeTypes, roles)

	// Attributes: prefix counts per node, one {nameOff,nameLen,valOff,
	// valLen} quad per attribute, one shared byte blob.
	n := g.NumNodes()
	labels := make([]int32, n)
	attrStart := make([]int32, n+1)
	var attrEntry []byte
	var attrBlob []byte
	for v := 0; v < n; v++ {
		labels[v] = int32(g.Label(graph.NodeID(v)))
		as := g.Attrs(graph.NodeID(v))
		attrStart[v+1] = attrStart[v] + int32(len(as))
		for _, a := range as {
			attrEntry = appendU32(attrEntry, uint32(len(attrBlob)))
			attrEntry = appendU32(attrEntry, uint32(len(a.Name)))
			attrBlob = append(attrBlob, a.Name...)
			attrEntry = appendU32(attrEntry, uint32(len(attrBlob)))
			attrEntry = appendU32(attrEntry, uint32(len(a.Value)))
			attrBlob = append(attrBlob, a.Value...)
		}
	}

	p := ix.Params()
	postStart, posts := ix.Postings()

	secs := []binSection{
		{secMeta, meta},
		{secNodeTypes, appendStringTable(nil, nodeTypes)},
		{secEdgeTypes, edgeTypes},
		{secRates, appendF64s(nil, ds.Rates.Vector())},
		{secLabels, appendI32s(nil, labels)},
		{secAttrStart, appendI32s(nil, attrStart)},
		{secAttrEntry, attrEntry},
		{secAttrBlob, attrBlob},
		{secIdxMeta, appendF64s(nil, []float64{p.K1, p.B, p.K3})},
		{secTerms, appendStringTable(nil, ix.Terms())},
		{secPostStart, appendI32s(nil, postStart)},
		{secPostings, appendPostings(nil, posts)},
		{secEdges, appendEdges(nil, g.Edges())},
	}
	return writeSections(w, secs)
}

// writeSections lays secs out as a snapshot file: header, section
// table, 8-aligned payloads.
func writeSections(w io.Writer, secs []binSection) error {
	table := make([]byte, 0, len(secs)*sectionEntrySize)
	off := align8(headerSize + len(secs)*sectionEntrySize)
	for _, sec := range secs {
		table = appendU32(table, sec.id)
		table = appendU32(table, crc32.Checksum(sec.payload, crcTable))
		table = appendU64(table, uint64(off))
		table = appendU64(table, uint64(len(sec.payload)))
		off = align8(off + len(sec.payload))
	}
	fileSize := off

	var hdr []byte
	hdr = append(hdr, binMagic[:]...)
	hdr = appendU32(hdr, binSnapshotVersion)
	hdr = appendU32(hdr, uint32(len(secs)))
	hdr = appendU32(hdr, crc32.Checksum(table, crcTable))
	hdr = appendU32(hdr, 0)
	hdr = appendU64(hdr, uint64(fileSize))

	if _, err := w.Write(hdr); err != nil {
		return err
	}
	if _, err := w.Write(table); err != nil {
		return err
	}
	written := headerSize + len(table)
	var pad [8]byte
	for _, sec := range secs {
		if n := align8(written) - written; n > 0 {
			if _, err := w.Write(pad[:n]); err != nil {
				return err
			}
			written += n
		}
		if _, err := w.Write(sec.payload); err != nil {
			return err
		}
		written += len(sec.payload)
	}
	if n := align8(written) - written; n > 0 {
		if _, err := w.Write(pad[:n]); err != nil {
			return err
		}
	}
	return nil
}

// WriteSnapshotFile writes a binary snapshot to path (atomically via a
// temp file in the same directory, so a crash mid-write never leaves a
// half-written snapshot under the final name).
func WriteSnapshotFile(path string, ds *datagen.Dataset, ix *ir.Index) error {
	return AtomicWriteFile(path, func(w io.Writer) error {
		return WriteSnapshot(w, ds, ix)
	})
}

// ---- reader ----

// ReadSnapshot parses a binary snapshot held in memory. The returned
// dataset and index copy what they keep and do not alias data, so the
// caller may reuse or drop it. Every section is bounds- and
// checksum-verified and every structural invariant re-checked before
// anything is handed out, so hostile input returns a typed error and
// never panics.
func ReadSnapshot(data []byte) (*datagen.Dataset, *ir.Index, error) {
	if len(data) < headerSize {
		return nil, nil, fmt.Errorf("%w: %d bytes is smaller than the header", ErrSnapshotTruncated, len(data))
	}
	if [8]byte(data[:8]) != binMagic {
		return nil, nil, ErrSnapshotMagic
	}
	version := binary.LittleEndian.Uint32(data[8:])
	if version != binSnapshotVersion {
		return nil, nil, fmt.Errorf("%w: version %d, want %d; regenerate the file with datagen -out", ErrSnapshotVersion, version, binSnapshotVersion)
	}
	count := binary.LittleEndian.Uint32(data[12:])
	tableCRC := binary.LittleEndian.Uint32(data[16:])
	fileSize := binary.LittleEndian.Uint64(data[24:])
	if fileSize != uint64(len(data)) {
		if uint64(len(data)) < fileSize {
			return nil, nil, fmt.Errorf("%w: header claims %d bytes, have %d", ErrSnapshotTruncated, fileSize, len(data))
		}
		return nil, nil, fmt.Errorf("%w: header claims %d bytes, have %d", ErrSnapshotCorrupt, fileSize, len(data))
	}
	if count == 0 || count > maxSections {
		return nil, nil, fmt.Errorf("%w: implausible section count %d", ErrSnapshotCorrupt, count)
	}
	tableEnd := headerSize + int(count)*sectionEntrySize
	if len(data) < tableEnd {
		return nil, nil, fmt.Errorf("%w: section table extends past end of file", ErrSnapshotTruncated)
	}
	table := data[headerSize:tableEnd]
	if crc32.Checksum(table, crcTable) != tableCRC {
		return nil, nil, fmt.Errorf("%w: section table", ErrSnapshotChecksum)
	}

	secs := make(map[uint32][]byte, count)
	for i := 0; i < int(count); i++ {
		entry := table[i*sectionEntrySize:]
		id := binary.LittleEndian.Uint32(entry)
		crc := binary.LittleEndian.Uint32(entry[4:])
		off := binary.LittleEndian.Uint64(entry[8:])
		length := binary.LittleEndian.Uint64(entry[16:])
		if length > uint64(len(data)) || off > uint64(len(data))-length || off < uint64(tableEnd) {
			return nil, nil, fmt.Errorf("%w: section %d offset %d+%d out of bounds (file is %d bytes)",
				ErrSnapshotCorrupt, id, off, length, len(data))
		}
		payload := data[off : off+length]
		if crc32.Checksum(payload, crcTable) != crc {
			return nil, nil, fmt.Errorf("%w: section %d", ErrSnapshotChecksum, id)
		}
		if _, dup := secs[id]; dup {
			return nil, nil, fmt.Errorf("%w: duplicate section %d", ErrSnapshotCorrupt, id)
		}
		secs[id] = payload
	}
	for _, id := range requiredSections {
		if _, ok := secs[id]; !ok {
			return nil, nil, fmt.Errorf("%w: missing section %d", ErrSnapshotCorrupt, id)
		}
	}

	// Meta.
	meta := secs[secMeta]
	if len(meta) < 4 {
		return nil, nil, fmt.Errorf("%w: meta section too short", ErrSnapshotCorrupt)
	}
	nameLen := binary.LittleEndian.Uint32(meta)
	if uint64(len(meta)) != 4+uint64(nameLen)+16 {
		return nil, nil, fmt.Errorf("%w: meta section is %d bytes for a %d-byte name", ErrSnapshotCorrupt, len(meta), nameLen)
	}
	name := string(meta[4 : 4+nameLen])
	numNodes := binary.LittleEndian.Uint64(meta[4+nameLen:])
	numEdges := binary.LittleEndian.Uint64(meta[4+nameLen+8:])
	const maxNodes = 1 << 31
	if numNodes > maxNodes || numEdges > maxNodes {
		return nil, nil, fmt.Errorf("%w: implausible node/edge counts %d/%d", ErrSnapshotCorrupt, numNodes, numEdges)
	}
	n := int(numNodes)

	// Schema.
	nodeTypes, err := decodeStringTable(secs[secNodeTypes], "node type")
	if err != nil {
		return nil, nil, err
	}
	et := secs[secEdgeTypes]
	if len(et) < 4 {
		return nil, nil, fmt.Errorf("%w: edge type section too short", ErrSnapshotCorrupt)
	}
	numEdgeTypes := binary.LittleEndian.Uint32(et)
	if uint64(len(et)) < 4+uint64(numEdgeTypes)*8 {
		return nil, nil, fmt.Errorf("%w: edge type section claims %d entries but is %d bytes", ErrSnapshotCorrupt, numEdgeTypes, len(et))
	}
	roles, err := decodeStringTable(et[4+numEdgeTypes*8:], "edge role")
	if err != nil {
		return nil, nil, err
	}
	if uint32(len(roles)) != numEdgeTypes {
		return nil, nil, fmt.Errorf("%w: %d edge types but %d roles", ErrSnapshotCorrupt, numEdgeTypes, len(roles))
	}
	schema := graph.NewSchema()
	for _, tn := range nodeTypes {
		schema.AddNodeType(tn)
	}
	if schema.NumNodeTypes() != len(nodeTypes) {
		return nil, nil, fmt.Errorf("%w: duplicate node type names", ErrSnapshotCorrupt)
	}
	for e := uint32(0); e < numEdgeTypes; e++ {
		from := int32(binary.LittleEndian.Uint32(et[4+e*8:]))
		to := int32(binary.LittleEndian.Uint32(et[4+e*8+4:]))
		id, err := schema.AddEdgeType(roles[e], graph.TypeID(from), graph.TypeID(to))
		if err != nil {
			return nil, nil, fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
		}
		if id != graph.EdgeTypeID(e) {
			return nil, nil, fmt.Errorf("%w: duplicate edge type %q", ErrSnapshotCorrupt, roles[e])
		}
	}

	// Node labels and attributes.
	labels32, err := decodeI32s(secs[secLabels])
	if err != nil {
		return nil, nil, err
	}
	if len(labels32) != n {
		return nil, nil, fmt.Errorf("%w: %d labels for %d nodes", ErrSnapshotCorrupt, len(labels32), n)
	}
	labels := make([]graph.TypeID, n)
	for i, l := range labels32 {
		labels[i] = graph.TypeID(l)
	}
	attrs, err := decodeAttrs(n, secs[secAttrStart], secs[secAttrEntry], secs[secAttrBlob])
	if err != nil {
		return nil, nil, err
	}

	// Data edges; FromEdges builds the graph as the Builder does.
	edges, err := decodeEdges(secs[secEdges])
	if err != nil {
		return nil, nil, err
	}
	if uint64(len(edges)) != numEdges {
		return nil, nil, fmt.Errorf("%w: %d edges, meta claims %d", ErrSnapshotCorrupt, len(edges), numEdges)
	}
	g, err := graph.FromEdges(schema, labels, attrs, edges)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
	}

	// Rates.
	rateVec, err := decodeF64s(secs[secRates])
	if err != nil {
		return nil, nil, err
	}
	rates := graph.NewRates(schema)
	if err := rates.SetVector(rateVec); err != nil {
		return nil, nil, fmt.Errorf("%w: rates: %v", ErrSnapshotCorrupt, err)
	}

	// Inverted index.
	im := secs[secIdxMeta]
	if len(im) != 24 {
		return nil, nil, fmt.Errorf("%w: index meta section is %d bytes, want 24", ErrSnapshotCorrupt, len(im))
	}
	params := ir.BM25Params{
		K1: math.Float64frombits(binary.LittleEndian.Uint64(im)),
		B:  math.Float64frombits(binary.LittleEndian.Uint64(im[8:])),
		K3: math.Float64frombits(binary.LittleEndian.Uint64(im[16:])),
	}
	terms, err := decodeStringTable(secs[secTerms], "term")
	if err != nil {
		return nil, nil, err
	}
	postStart, err := decodeI32s(secs[secPostStart])
	if err != nil {
		return nil, nil, err
	}
	posts, err := decodePostings(secs[secPostings])
	if err != nil {
		return nil, nil, err
	}
	ix, err := ir.FromParts(params, n, terms, postStart, posts)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
	}

	return &datagen.Dataset{Name: name, Graph: g, Rates: rates}, ix, nil
}

func decodeAttrs(n int, startSec, entrySec, blobSec []byte) ([][]graph.Attr, error) {
	start, err := decodeI32s(startSec)
	if err != nil {
		return nil, err
	}
	if len(start) != n+1 {
		return nil, fmt.Errorf("%w: %d attribute offsets for %d nodes", ErrSnapshotCorrupt, len(start), n)
	}
	if len(entrySec)%16 != 0 {
		return nil, fmt.Errorf("%w: attribute entry section length %d not a multiple of 16", ErrSnapshotCorrupt, len(entrySec))
	}
	numAttrs := len(entrySec) / 16
	if n > 0 && (start[0] != 0 || int(start[n]) != numAttrs) {
		return nil, fmt.Errorf("%w: attribute offsets cover %d of %d entries", ErrSnapshotCorrupt, start[n], numAttrs)
	}
	blob := string(blobSec) // one copy; every name and value slices it
	flat := make([]graph.Attr, numAttrs)
	for i := 0; i < numAttrs; i++ {
		rec := entrySec[i*16:]
		nameOff := binary.LittleEndian.Uint32(rec)
		nameLen := binary.LittleEndian.Uint32(rec[4:])
		valOff := binary.LittleEndian.Uint32(rec[8:])
		valLen := binary.LittleEndian.Uint32(rec[12:])
		if uint64(nameOff)+uint64(nameLen) > uint64(len(blob)) || uint64(valOff)+uint64(valLen) > uint64(len(blob)) {
			return nil, fmt.Errorf("%w: attribute %d references bytes outside the blob", ErrSnapshotCorrupt, i)
		}
		flat[i] = graph.Attr{
			Name:  blob[nameOff:][:nameLen],
			Value: blob[valOff:][:valLen],
		}
	}
	attrs := make([][]graph.Attr, n)
	for v := 0; v < n; v++ {
		lo, hi := start[v], start[v+1]
		if lo < 0 || hi < lo || int(hi) > numAttrs {
			return nil, fmt.Errorf("%w: node %d attribute range %d:%d out of bounds", ErrSnapshotCorrupt, v, lo, hi)
		}
		if lo < hi {
			attrs[v] = flat[lo:hi]
		}
	}
	return attrs, nil
}

// ReadSnapshotFile loads a binary snapshot from path. The whole file is
// read in one pass and released once it is decoded (see ReadSnapshot).
func ReadSnapshotFile(path string) (*datagen.Dataset, *ir.Index, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	return ReadSnapshot(data)
}
