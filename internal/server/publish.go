// publish.go implements /v1/rates: GET reads the published rates, and
// POST publishes an already-trained rate vector through the engine's
// optimistic CAS.
//
// /v1/reformulate LEARNS rates from feedback and publishes them as a
// side effect; POST /v1/rates publishes a vector somebody else already
// learned. It exists for the scale-out tier: the afqrouter coordinator
// applies a reformulation on one replica, reads back the resulting
// vector, and replays it onto every other replica through this
// endpoint with each replica's current version as the CAS token — so
// the whole fleet advances through the same (generation, ratesVersion)
// sequence and any replica can answer any query consistently.
//
// Concurrency semantics are exactly TrySetRates': the publish lands
// only if the replica's rates version still equals the token (409 +
// winning version otherwise), and the optional ifGeneration guard
// rejects a vector trained on a different corpus generation (409 +
// current generation) — the same two conflict axes /v1/reformulate and
// /v1/corpus/swap already expose.
package server

import (
	"errors"
	"net/http"
	"strconv"

	"authorityflow/internal/core"
)

// maxRatesBody bounds the POST /v1/rates body; rate vectors have one
// entry per schema transfer type (a handful), so 1 MiB is generous.
const maxRatesBody = 1 << 20

// ratesEndpoint is /v1/rates: POST publishes, any other method reads.
var ratesEndpoint = endpoint{pattern: "/v1/rates", parse: (*Server).parseRates, run: (*Server).runRates}

// parseRates reads and validates a POST's vector against the pin: the
// generation guard, the version token's default and the vector's
// validation all read the pinned state.
func (s *Server) parseRates(rq *request, r *http.Request) (string, error) {
	if rq.method != http.MethodPost {
		return "", nil
	}
	var req RatesPublishRequest
	if err := readJSON(r, maxRatesBody, "body too large", &req); err != nil {
		return "", err
	}
	if len(req.Vector) == 0 {
		return "", badRequest("vector required")
	}
	if req.IfGeneration != 0 && req.IfGeneration != rq.pin.Generation() {
		return "", conflict("rates were trained on a different corpus generation", 0, rq.pin.Generation())
	}
	rates := rq.pin.Rates()
	if err := rates.SetVector(req.Vector); err != nil {
		return "", badRequest(err.Error())
	}
	if err := rates.Validate(); err != nil {
		return "", badRequest(err.Error())
	}
	rq.rates, rq.ifVersion = rates, req.IfVersion
	if rq.ifVersion == 0 {
		rq.ifVersion = rq.pin.Version()
	}
	return "vector=" + strconv.Itoa(len(req.Vector)) + " ifVersion=" + strconv.FormatUint(rq.ifVersion, 10), nil
}

// runRates answers the pinned rates or publishes the parsed vector.
func (s *Server) runRates(rq *request) (reply, error) {
	rates, version := rq.rates, rq.pin.Version()
	if rates == nil {
		rates = rq.pin.Rates()
	} else {
		var err error
		version, err = s.eng.TrySetRates(rates, rq.ifVersion)
		if errors.Is(err, core.ErrRatesConflict) {
			return reply{}, conflict("rates were changed concurrently; re-read and retry", version, 0)
		}
		if err != nil {
			return reply{}, badRequest(err.Error())
		}
		rq.tr.Eventf("publish", "version=%d", version)
	}
	vector := rates.Vector()
	return reply{what: "rates", n: len(vector), json: RatesResponse{
		Rates:   rates.String(),
		Vector:  vector,
		Version: version,
	}}, nil
}
