// contract.go is the uniform read-query contract of the ranking
// surface: the mode and budget parameters accepted — with identical
// validation and identical invalid_argument messages — by /v1/query,
// /v1/query/batch, /v1/explain and /v1/audit, on the server AND on the
// router (which imports these exact validators so a request rejected at
// either tier produces the same bytes).
//
//   - mode selects the ranking direction: authority (the default, the
//     paper's ObjectRank2 semantics) or hub (the CheiRank dual on the
//     direction-reversed graph). Spelled exactly as core.ParseMode
//     accepts it; the empty string means authority, so every pre-mode
//     request keeps its meaning and its bytes. Every accepted mode is
//     one flow system, so all four surfaces take every mode.
//   - budget caps ranked contribution lists (the explaining arcs of
//     /v1/audit and the contributions[] block of /v1/explain). 0 means
//     the endpoint default (core.DefaultAuditBudget); surfaces without
//     contribution lists (/v1/query, /v1/query/batch) validate it all
//     the same and ignore it, so a client can set it fleet-wide without
//     caring which endpoint a request lands on.
//   - format selects /v1/explain's rendering: json (the default), html
//     or dot. Anything else is rejected rather than answered as JSON;
//     the other surfaces validate it and ignore it, like budget.
//
// (/v1/reformulate's mode parameter is a different, pre-existing axis —
// the reformulation strategy structure|content|both — and is NOT part
// of this contract; reformulation is a write surface.)
package server

import (
	"errors"
	"net/url"
	"slices"
	"strconv"

	"authorityflow/internal/core"
)

// MaxBudget bounds the budget parameter (matching k's 1000 cap).
const MaxBudget = 1000

// ReadParams is the validated uniform read-query parameter set.
type ReadParams struct {
	// Mode is the resolved ranking direction (never the empty string;
	// an absent parameter resolves to core.ModeAuthority).
	Mode core.Mode
	// Budget is the contribution budget; 0 means the endpoint default.
	Budget int
	// Format is /v1/explain's rendering: "json" (the default), "html"
	// or "dot".
	Format string
}

// readParamTable is THE validation table of the uniform contract: one
// entry per parameter, applied in order. Every entry's error message
// names the field, and every surface — the four server handlers, the
// batch items, and the router's mirrors — funnels through these same
// entries, so an invalid value produces one spelling of the rejection
// everywhere.
var readParamTable = []struct {
	name  string
	apply func(raw string, rp *ReadParams) error
}{
	{"mode", func(raw string, rp *ReadParams) error {
		m, err := core.ParseMode(raw)
		if err != nil {
			return err // core's message already names the field
		}
		rp.Mode = m
		return nil
	}},
	{"budget", func(raw string, rp *ReadParams) error {
		if raw == "" {
			return nil
		}
		v, err := strconv.Atoi(raw)
		if err != nil {
			return errBudget
		}
		if err := CheckBudget(v); err != nil {
			return err
		}
		rp.Budget = v
		return nil
	}},
	{"format", func(raw string, rp *ReadParams) error {
		if raw == "" {
			raw = explainFormats[0]
		}
		if !slices.Contains(explainFormats, raw) {
			return errors.New("format must be json, html or dot")
		}
		rp.Format = raw
		return nil
	}},
}

// explainFormats are /v1/explain's renderings, the default first.
var explainFormats = []string{"json", "html", "dot"}

var errBudget = errors.New("budget must be an integer in 0.." + strconv.Itoa(MaxBudget))

// CheckBudget validates an already-numeric budget (the JSON batch items
// carry it as an int) against the same bound the table entry enforces.
func CheckBudget(v int) error {
	if v < 0 || v > MaxBudget {
		return errBudget
	}
	return nil
}

// ValidateReadParams runs the table over URL query values and returns
// the validated parameter set or the first table error. Exported for
// the router, which mirrors the validation before fan-out so a bad
// request is rejected with the replica's exact message without
// spending a proxy hop.
func ValidateReadParams(v url.Values) (ReadParams, error) {
	rp := ReadParams{Mode: core.ModeAuthority}
	for _, e := range readParamTable {
		if err := e.apply(v.Get(e.name), &rp); err != nil {
			return rp, err
		}
	}
	return rp, nil
}
