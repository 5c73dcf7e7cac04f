package storage

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"

	"authorityflow/internal/graph"
)

// RatesJSON is the portable JSON form of a trained authority-transfer
// rate assignment. Rates are keyed by the human-readable transfer-type
// name ("Paper-cites->Paper") rather than by numeric ID, so a file
// survives schema re-registration order changes and is reviewable by a
// domain expert — the artifact the paper's training replaces.
type RatesJSON struct {
	Rates map[string]float64 `json:"rates"`
}

// SaveRates writes a rate assignment as JSON.
func SaveRates(w io.Writer, r *graph.Rates) error {
	s := r.Schema()
	out := RatesJSON{Rates: make(map[string]float64, s.NumTransferTypes())}
	for t := 0; t < s.NumTransferTypes(); t++ {
		tt := graph.TransferTypeID(t)
		if v := r.Rate(tt); v != 0 {
			out.Rates[s.TransferTypeName(tt)] = v
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false) // keep "->" readable in the rate names
	return enc.Encode(&out)
}

// LoadRates reads a JSON rate assignment into a rate vector over the
// given schema. Unknown transfer-type names are an error (they signal a
// schema mismatch); transfer types absent from the file get rate 0.
// The result is validated (outgoing sums at most 1).
func LoadRates(r io.Reader, s *graph.Schema) (*graph.Rates, error) {
	var in RatesJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("storage: rates: %w", err)
	}
	byName := make(map[string]graph.TransferTypeID, s.NumTransferTypes())
	for t := 0; t < s.NumTransferTypes(); t++ {
		tt := graph.TransferTypeID(t)
		byName[s.TransferTypeName(tt)] = tt
	}
	rates := graph.NewRates(s)
	for name, v := range in.Rates {
		tt, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("storage: rates: unknown transfer type %q for this schema", name)
		}
		// A -0 would load, then be saved as an absent (+0) rate.
		if math.Signbit(v) {
			return nil, fmt.Errorf("storage: rates: negative rate %v for %q", v, name)
		}
		if err := rates.SetRate(tt, v); err != nil {
			return nil, fmt.Errorf("storage: rates: %w", err)
		}
	}
	if err := rates.Validate(); err != nil {
		return nil, fmt.Errorf("storage: rates: %w", err)
	}
	return rates, nil
}

// SaveRatesFile writes rates as JSON to path.
func SaveRatesFile(path string, r *graph.Rates) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := SaveRates(f, r); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadRatesFile reads JSON rates from path.
func LoadRatesFile(path string, s *graph.Schema) (*graph.Rates, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadRates(f, s)
}
