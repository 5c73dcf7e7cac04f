package profile

import (
	"bytes"
	"testing"
)

// FuzzProfileDecode: arbitrary bytes never panic the AFQPROF1 reader —
// they decode or return an error — and whatever decodes is a record the
// codec round-trips: its re-encoding decodes, and re-encodes to the same
// bytes. Encode is a deterministic function of every field (sorted
// terms, raw float bits), so byte equality is field-for-field equality
// that holds for NaN weights too. Seeds — a valid record, a truncated
// one, one with a flipped checksum byte and a legacy record carrying a
// rates-delta section — are checked in under testdata/fuzz.
func FuzzProfileDecode(f *testing.F) {
	f.Add((&Profile{ID: "seed", Mixture: map[string]float64{"mining": 1}}).Encode())
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Decode(data)
		if err != nil {
			return // rejected, fine
		}
		enc := p.Encode()
		again, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-encoded record does not decode: %v", err)
		}
		if !bytes.Equal(again.Encode(), enc) {
			t.Fatalf("record changed across a round trip:\n%+v\n%+v", p, again)
		}
	})
}
