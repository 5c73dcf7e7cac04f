package storage

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"authorityflow/internal/datagen"
	"authorityflow/internal/graph"
)

// SchemaJSON is the portable description of a schema graph plus its
// authority transfer rates — what an adopter writes to load their own
// database instead of a synthetic corpus. Rates use the same
// human-readable transfer-type names as RatesJSON; absent types default
// to rate 0.
type SchemaJSON struct {
	NodeTypes []string           `json:"nodeTypes"`
	EdgeTypes []EdgeTypeJSON     `json:"edgeTypes"`
	Rates     map[string]float64 `json:"rates"`
}

// EdgeTypeJSON describes one schema edge.
type EdgeTypeJSON struct {
	Role string `json:"role"`
	From string `json:"from"`
	To   string `json:"to"`
}

// LoadSchema parses a SchemaJSON document into a schema graph and its
// rates.
func LoadSchema(r io.Reader) (*graph.Schema, *graph.Rates, error) {
	var in SchemaJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, nil, fmt.Errorf("storage: schema: %w", err)
	}
	if len(in.NodeTypes) == 0 {
		return nil, nil, fmt.Errorf("storage: schema declares no node types")
	}
	s := graph.NewSchema()
	for _, name := range in.NodeTypes {
		s.AddNodeType(name)
	}
	for _, et := range in.EdgeTypes {
		from, ok := s.TypeByName(et.From)
		if !ok {
			return nil, nil, fmt.Errorf("storage: edge %q references unknown type %q", et.Role, et.From)
		}
		to, ok := s.TypeByName(et.To)
		if !ok {
			return nil, nil, fmt.Errorf("storage: edge %q references unknown type %q", et.Role, et.To)
		}
		if _, err := s.AddEdgeType(et.Role, from, to); err != nil {
			return nil, nil, fmt.Errorf("storage: %w", err)
		}
	}
	ratesDoc, err := json.Marshal(RatesJSON{Rates: in.Rates})
	if err != nil {
		return nil, nil, err
	}
	rates, err := LoadRates(strings.NewReader(string(ratesDoc)), s)
	if err != nil {
		return nil, nil, err
	}
	return s, rates, nil
}

// ImportTSV builds a dataset from a schema document and two
// tab-separated files:
//
//	nodes:  <id> <TAB> <type> [<TAB> name=value]...
//	edges:  <from-id> <TAB> <to-id> <TAB> <role>
//
// IDs are arbitrary non-empty strings, mapped to dense node IDs in
// file order. Blank lines and lines starting with '#' are skipped. A
// line may end in CRLF, but a carriage return anywhere else is an error:
// ExportTSV would write it at a line end, where the next import drops it.
// Every referenced type, role and ID must exist; duplicate node IDs and
// malformed lines are errors with line numbers.
func ImportTSV(schema io.Reader, nodes io.Reader, edges io.Reader, name string) (*datagen.Dataset, error) {
	s, rates, err := LoadSchema(schema)
	if err != nil {
		return nil, err
	}
	b := graph.NewBuilder(s)
	idMap := make(map[string]graph.NodeID)

	scan := bufio.NewScanner(nodes)
	scan.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for scan.Scan() {
		lineNo++
		line := scan.Text()
		if skippable(line) {
			continue
		}
		if strings.ContainsRune(line, '\r') {
			return nil, fmt.Errorf("storage: nodes line %d: carriage return inside the line", lineNo)
		}
		fields := strings.Split(line, "\t")
		if len(fields) < 2 {
			return nil, fmt.Errorf("storage: nodes line %d: want <id>\\t<type>[\\tname=value...]", lineNo)
		}
		id, typeName := fields[0], fields[1]
		if id == "" {
			return nil, fmt.Errorf("storage: nodes line %d: empty id", lineNo)
		}
		if _, dup := idMap[id]; dup {
			return nil, fmt.Errorf("storage: nodes line %d: duplicate id %q", lineNo, id)
		}
		t, ok := s.TypeByName(typeName)
		if !ok {
			return nil, fmt.Errorf("storage: nodes line %d: unknown type %q", lineNo, typeName)
		}
		var attrs []graph.Attr
		for _, f := range fields[2:] {
			k, v, ok := strings.Cut(f, "=")
			if !ok || k == "" {
				return nil, fmt.Errorf("storage: nodes line %d: bad attribute %q", lineNo, f)
			}
			attrs = append(attrs, graph.Attr{Name: k, Value: v})
		}
		idMap[id] = b.AddNode(t, attrs...)
	}
	if err := scan.Err(); err != nil {
		return nil, fmt.Errorf("storage: nodes: %w", err)
	}

	scan = bufio.NewScanner(edges)
	scan.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo = 0
	for scan.Scan() {
		lineNo++
		line := scan.Text()
		if skippable(line) {
			continue
		}
		if strings.ContainsRune(line, '\r') {
			return nil, fmt.Errorf("storage: edges line %d: carriage return inside the line", lineNo)
		}
		fields := strings.Split(line, "\t")
		if len(fields) != 3 {
			return nil, fmt.Errorf("storage: edges line %d: want <from>\\t<to>\\t<role>", lineNo)
		}
		from, ok := idMap[fields[0]]
		if !ok {
			return nil, fmt.Errorf("storage: edges line %d: unknown node %q", lineNo, fields[0])
		}
		to, ok := idMap[fields[1]]
		if !ok {
			return nil, fmt.Errorf("storage: edges line %d: unknown node %q", lineNo, fields[1])
		}
		role, ok := s.EdgeTypeByRole(fields[2])
		if !ok {
			return nil, fmt.Errorf("storage: edges line %d: unknown role %q", lineNo, fields[2])
		}
		b.AddEdge(from, to, role)
	}
	if err := scan.Err(); err != nil {
		return nil, fmt.Errorf("storage: edges: %w", err)
	}

	g, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	if name == "" {
		name = "imported"
	}
	return &datagen.Dataset{Name: name, Graph: g, Rates: rates}, nil
}

// ImportTSVFiles is ImportTSV over file paths.
func ImportTSVFiles(schemaPath, nodesPath, edgesPath, name string) (*datagen.Dataset, error) {
	sf, err := os.Open(schemaPath)
	if err != nil {
		return nil, err
	}
	defer sf.Close()
	nf, err := os.Open(nodesPath)
	if err != nil {
		return nil, err
	}
	defer nf.Close()
	ef, err := os.Open(edgesPath)
	if err != nil {
		return nil, err
	}
	defer ef.Close()
	if name == "" {
		name = strings.TrimSuffix(filepath.Base(nodesPath), filepath.Ext(nodesPath))
	}
	return ImportTSV(sf, nf, ef, name)
}

// ExportTSV writes a dataset in the ImportTSV format (schema JSON,
// nodes TSV, edges TSV), enabling round trips and hand edits. Node IDs
// are written as n<ordinal>.
func ExportTSV(ds *datagen.Dataset, schema io.Writer, nodes io.Writer, edges io.Writer) error {
	g := ds.Graph
	s := g.Schema()

	doc := SchemaJSON{Rates: map[string]float64{}}
	for t := 0; t < s.NumNodeTypes(); t++ {
		doc.NodeTypes = append(doc.NodeTypes, s.TypeName(graph.TypeID(t)))
	}
	for e := 0; e < s.NumEdgeTypes(); e++ {
		et := s.EdgeTypeInfo(graph.EdgeTypeID(e))
		doc.EdgeTypes = append(doc.EdgeTypes, EdgeTypeJSON{
			Role: et.Role, From: s.TypeName(et.From), To: s.TypeName(et.To),
		})
	}
	for t := 0; t < s.NumTransferTypes(); t++ {
		tt := graph.TransferTypeID(t)
		if v := ds.Rates.Rate(tt); v != 0 {
			doc.Rates[s.TransferTypeName(tt)] = v
		}
	}
	enc := json.NewEncoder(schema)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	if err := enc.Encode(&doc); err != nil {
		return err
	}

	nw := bufio.NewWriter(nodes)
	for v := 0; v < g.NumNodes(); v++ {
		id := graph.NodeID(v)
		fmt.Fprintf(nw, "n%d\t%s", v, g.LabelName(id))
		for _, a := range g.Attrs(id) {
			fmt.Fprintf(nw, "\t%s=%s", a.Name, sanitizeTSV(a.Value))
		}
		fmt.Fprintln(nw)
	}
	if err := nw.Flush(); err != nil {
		return err
	}

	ew := bufio.NewWriter(edges)
	for _, e := range g.Edges() {
		fmt.Fprintf(ew, "n%d\tn%d\t%s\n", e.From, e.To, s.EdgeTypeInfo(e.Type).Role)
	}
	return ew.Flush()
}

func skippable(line string) bool {
	trimmed := strings.TrimSpace(line)
	return trimmed == "" || strings.HasPrefix(trimmed, "#")
}

// sanitizeTSV keeps attribute values single-line and tab-free so the
// format stays line-oriented.
func sanitizeTSV(v string) string {
	v = strings.ReplaceAll(v, "\t", " ")
	v = strings.ReplaceAll(v, "\n", " ")
	return v
}
