package server

import (
	"encoding/json"
	"net/url"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// FuzzReadContract: the two readers every ranking request passes through
// on BOTH tiers — ValidateReadParams over the mode/budget/format
// strings, DecodeBatch over a /v1/query/batch body — never panic on
// arbitrary input; what they accept re-validates, from its own parsed
// values, to those same values; and what they reject is phrased without
// control bytes (the message goes into a JSON envelope and a log line).
// A sub-slice of an accepted panel — the even and the odd items, as a
// router's split might send two replicas — decodes to those same items:
// no sub-batch a router sends can be rejected, so no replica error
// names a sub-batch position.
// Seeds — an accepted input, a bad value per parameter, and the batch
// envelope's three rejections — are checked in under testdata/fuzz.
func FuzzReadContract(f *testing.F) {
	f.Add("hub", "16", "dot", []byte(`{"queries":[{"q":"olap cube","k":5,"mode":"combined","budget":3}]}`))
	f.Fuzz(func(t *testing.T, mode, budget, format string, body []byte) {
		rejected := func(what string, err error) {
			if i := strings.IndexFunc(err.Error(), func(r rune) bool { return r < 0x20 || r == 0x7f }); i >= 0 {
				t.Fatalf("%s rejection carries a control byte at %d: %q", what, i, err.Error())
			}
		}

		rp, err := ValidateReadParams(url.Values{"mode": {mode}, "budget": {budget}, "format": {format}})
		if err != nil {
			rejected("read-params", err)
		} else {
			again, err := ValidateReadParams(url.Values{
				"mode": {string(rp.Mode)}, "budget": {strconv.Itoa(rp.Budget)}, "format": {rp.Format}})
			if err != nil || again != rp {
				t.Fatalf("accepted (%q, %q, %q) as %+v, which re-validates to %+v, %v", mode, budget, format, rp, again, err)
			}
		}

		if len(body) > maxBatchBody {
			t.Skip("the handlers cap the body before decoding it")
		}
		items, qs, ks, modes, err := DecodeBatch(body)
		if err != nil {
			rejected("batch", err)
			return
		}
		enc, err := json.Marshal(BatchQueryRequest{Queries: items})
		if err != nil {
			t.Fatal(err)
		}
		items2, qs2, ks2, modes2, err := DecodeBatch(enc)
		if err != nil {
			t.Fatalf("accepted batch does not re-decode: %v\n%s", err, enc)
		}
		if !reflect.DeepEqual(items2, items) || !reflect.DeepEqual(ks2, ks) || !reflect.DeepEqual(modes2, modes) {
			t.Fatalf("batch changed across a round trip:\n%+v %v %v\n%+v %v %v", items, ks, modes, items2, ks2, modes2)
		}
		for i := range qs {
			if qs[i].Canonical() != qs2[i].Canonical() {
				t.Fatalf("queries[%d] parsed to %q, then to %q", i, qs[i].Canonical(), qs2[i].Canonical())
			}
		}
		for first := 0; first < 2 && first < len(items); first++ {
			var sub []BatchQueryItem
			for i := first; i < len(items); i += 2 {
				sub = append(sub, items[i])
			}
			enc, err := json.Marshal(BatchQueryRequest{Queries: sub})
			if err != nil {
				t.Fatal(err)
			}
			subItems, subQs, subKs, subModes, err := DecodeBatch(enc)
			if err != nil {
				t.Fatalf("a sub-batch of an accepted batch is rejected: %v\n%s", err, enc)
			}
			for j, i := 0, first; i < len(items); j, i = j+1, i+2 {
				if !reflect.DeepEqual(subItems[j], items[i]) || subKs[j] != ks[i] || subModes[j] != modes[i] ||
					subQs[j].Canonical() != qs[i].Canonical() {
					t.Fatalf("queries[%d] of the panel decodes as %+v in a sub-batch, %+v alone", i, subItems[j], items[i])
				}
			}
		}
	})
}
