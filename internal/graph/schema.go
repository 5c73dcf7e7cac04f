// Package graph implements the labeled-graph data model of
// "Explaining and Reformulating Authority Flow Queries" (ICDE 2008),
// Section 2: data graphs, schema graphs, authority transfer schema
// graphs, and authority transfer data graphs.
//
// A data graph D(V_D, E_D) is a labeled directed graph whose nodes are
// database objects (tuples, XML elements, biological entries) and whose
// edges are typed associations. A schema graph G(V_G, E_G) describes
// its structure. From the schema graph, an authority transfer schema
// graph G^A is derived by splitting every schema edge into a forward
// and a backward transfer edge, each annotated with an authority
// transfer rate. Finally, the authority transfer data graph D^A
// annotates every data edge with the rate of its type divided by the
// per-type out-degree of its source (Equation 1 of the paper).
package graph

import (
	"fmt"
	"sort"
)

// TypeID identifies a node type (a schema-graph node), e.g. "Paper".
type TypeID int32

// EdgeTypeID identifies a schema-graph edge (an association role
// between two node types), e.g. Paper-cites-Paper.
type EdgeTypeID int32

// Direction distinguishes the two authority transfer edges derived
// from one schema edge.
type Direction int8

const (
	// Forward is the direction of the original schema edge (u -> v).
	Forward Direction = 0
	// Backward is the reverse transfer edge (v -> u) added because
	// authority potentially flows against the schema direction.
	Backward Direction = 1
)

// String returns "forward" or "backward".
func (d Direction) String() string {
	if d == Backward {
		return "backward"
	}
	return "forward"
}

// TransferTypeID identifies one authority transfer edge type in the
// authority transfer schema graph. Every schema edge type e yields two
// transfer types: TransferType(e, Forward) and TransferType(e, Backward).
type TransferTypeID int32

// TransferType maps a schema edge type and a direction to the
// corresponding transfer edge type.
func TransferType(e EdgeTypeID, dir Direction) TransferTypeID {
	return TransferTypeID(int32(e)<<1 | int32(dir))
}

// EdgeType returns the schema edge type a transfer type derives from.
func (t TransferTypeID) EdgeType() EdgeTypeID { return EdgeTypeID(t >> 1) }

// Dir returns the direction of the transfer type.
func (t TransferTypeID) Dir() Direction { return Direction(t & 1) }

// EdgeType describes one schema-graph edge: a typed association from
// one node type to another, labeled with a role such as "cites".
type EdgeType struct {
	Role string
	From TypeID
	To   TypeID
}

// Schema is a schema graph G(V_G, E_G): the node types and typed edges
// that a data graph must conform to.
type Schema struct {
	nodeTypes  []string
	typeByName map[string]TypeID
	edgeTypes  []EdgeType
	edgeByKey  map[edgeKey]EdgeTypeID
}

type edgeKey struct {
	role     string
	from, to TypeID
}

// NewSchema returns an empty schema graph.
func NewSchema() *Schema {
	return &Schema{
		typeByName: make(map[string]TypeID),
		edgeByKey:  make(map[edgeKey]EdgeTypeID),
	}
}

// AddNodeType registers a node type (schema node) and returns its ID.
// Adding the same name twice returns the existing ID.
func (s *Schema) AddNodeType(name string) TypeID {
	if id, ok := s.typeByName[name]; ok {
		return id
	}
	id := TypeID(len(s.nodeTypes))
	s.nodeTypes = append(s.nodeTypes, name)
	s.typeByName[name] = id
	return id
}

// AddEdgeType registers a schema edge with the given role between two
// previously registered node types and returns its ID. Registering an
// identical (role, from, to) triple twice returns the existing ID.
func (s *Schema) AddEdgeType(role string, from, to TypeID) (EdgeTypeID, error) {
	if int(from) >= len(s.nodeTypes) || from < 0 {
		return 0, fmt.Errorf("graph: edge type %q: unknown source type %d", role, from)
	}
	if int(to) >= len(s.nodeTypes) || to < 0 {
		return 0, fmt.Errorf("graph: edge type %q: unknown target type %d", role, to)
	}
	k := edgeKey{role, from, to}
	if id, ok := s.edgeByKey[k]; ok {
		return id, nil
	}
	id := EdgeTypeID(len(s.edgeTypes))
	s.edgeTypes = append(s.edgeTypes, EdgeType{Role: role, From: from, To: to})
	s.edgeByKey[k] = id
	return id, nil
}

// MustAddEdgeType is AddEdgeType panicking on error; intended for
// statically known schemas.
func (s *Schema) MustAddEdgeType(role string, from, to TypeID) EdgeTypeID {
	id, err := s.AddEdgeType(role, from, to)
	if err != nil {
		panic(err)
	}
	return id
}

// NumNodeTypes returns the number of node types.
func (s *Schema) NumNodeTypes() int { return len(s.nodeTypes) }

// NumEdgeTypes returns the number of schema edge types.
func (s *Schema) NumEdgeTypes() int { return len(s.edgeTypes) }

// NumTransferTypes returns the number of authority transfer edge types
// (two per schema edge type).
func (s *Schema) NumTransferTypes() int { return 2 * len(s.edgeTypes) }

// TypeName returns the name of a node type.
func (s *Schema) TypeName(t TypeID) string {
	if t < 0 || int(t) >= len(s.nodeTypes) {
		return fmt.Sprintf("type#%d", t)
	}
	return s.nodeTypes[t]
}

// TypeByName looks a node type up by name.
func (s *Schema) TypeByName(name string) (TypeID, bool) {
	id, ok := s.typeByName[name]
	return id, ok
}

// EdgeTypeInfo returns the descriptor of a schema edge type.
func (s *Schema) EdgeTypeInfo(e EdgeTypeID) EdgeType {
	return s.edgeTypes[e]
}

// EdgeTypeByRole finds the first edge type with the given role. The
// lookup is linear; roles are typically unique per schema.
func (s *Schema) EdgeTypeByRole(role string) (EdgeTypeID, bool) {
	for i, et := range s.edgeTypes {
		if et.Role == role {
			return EdgeTypeID(i), true
		}
	}
	return 0, false
}

// TransferTypeName renders a transfer type as, e.g., "Paper-cites->Paper"
// or "Paper<-cites-Paper" for the backward direction.
func (s *Schema) TransferTypeName(t TransferTypeID) string {
	et := s.edgeTypes[t.EdgeType()]
	from, to := s.TypeName(et.From), s.TypeName(et.To)
	if t.Dir() == Forward {
		return fmt.Sprintf("%s-%s->%s", from, et.Role, to)
	}
	return fmt.Sprintf("%s<-%s-%s", from, et.Role, to)
}

// TransferTypesFrom returns all transfer types whose source node type is
// t — forward types of edges leaving t and backward types of edges
// entering t — in ascending transfer-type order.
func (s *Schema) TransferTypesFrom(t TypeID) []TransferTypeID {
	var out []TransferTypeID
	for i, et := range s.edgeTypes {
		if et.From == t {
			out = append(out, TransferType(EdgeTypeID(i), Forward))
		}
		if et.To == t {
			out = append(out, TransferType(EdgeTypeID(i), Backward))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
