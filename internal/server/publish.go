// publish.go implements POST /v1/rates: direct publication of an
// already-trained rate vector through the engine's optimistic CAS.
//
// /v1/reformulate LEARNS rates from feedback and publishes them as a
// side effect; this endpoint publishes a vector somebody else already
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

	"authorityflow/internal/core"
	"authorityflow/internal/obs"
)

// maxRatesBody bounds the POST /v1/rates body; rate vectors have one
// entry per schema transfer type (a handful), so 1 MiB is generous.
const maxRatesBody = 1 << 20

func (s *Server) handleRatesPublish(w http.ResponseWriter, r *http.Request) {
	var req RatesPublishRequest
	if err := readJSON(r, maxRatesBody, "body too large", &req); err != nil {
		s.fail(w, r, "", err)
		return
	}
	if len(req.Vector) == 0 {
		writeError(w, r, http.StatusBadRequest, "vector required")
		return
	}

	// Pin once: the generation guard, the version token default and the
	// vector validation all read the same engine state.
	pin := s.eng.Pin()
	if req.IfGeneration != 0 && req.IfGeneration != pin.Generation() {
		writeJSON(w, http.StatusConflict, SwapConflictEnvelope{
			Error: ErrorInfo{
				Code:      CodeVersionConflict,
				Message:   "rates were trained on a different corpus generation",
				RequestID: obs.RequestIDFrom(r.Context()),
			},
			Generation: pin.Generation(),
		})
		return
	}
	rates := pin.Rates()
	if err := rates.SetVector(req.Vector); err != nil {
		writeError(w, r, http.StatusBadRequest, err.Error())
		return
	}
	if err := rates.Validate(); err != nil {
		writeError(w, r, http.StatusBadRequest, err.Error())
		return
	}
	ifVersion := req.IfVersion
	if ifVersion == 0 {
		ifVersion = pin.Version()
	}
	newVersion, err := s.eng.TrySetRates(rates, ifVersion)
	if errors.Is(err, core.ErrRatesConflict) {
		writeConflict(w, r, "rates were changed concurrently; re-read and retry", newVersion)
		return
	}
	if err != nil {
		writeError(w, r, http.StatusBadRequest, err.Error())
		return
	}
	obs.TraceFrom(r.Context()).Eventf("publish", "version=%d", newVersion)
	writeJSON(w, http.StatusOK, RatesResponse{
		Rates:   rates.String(),
		Vector:  rates.Vector(),
		Version: newVersion,
	})
}

// handleRatesDispatch routes /v1/rates by method: GET reads the
// published rates, POST publishes a vector (the fleet-propagation
// write).
func (s *Server) handleRatesDispatch(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost {
		s.handleRatesPublish(w, r)
		return
	}
	s.handleRates(w, r)
}
