// profile.go wires the per-user personalization tier (internal/profile)
// into the HTTP surface:
//
//	GET|PUT|POST|DELETE /v1/profile/{id}   profile CRUD
//	GET /v1/query?q=...&profile={id}       personalized ranking
//	GET /v1/reformulate?...&profile={id}   profile-scoped training
//
// Personalized queries ride the basis-combination fast path: the
// profile's topic mixture combines precomputed basis fixpoints with the
// query's own (cached) fixpoint, so a personalized answer costs one
// O(|mixture|·|V|) vector blend on top of whatever the global tier
// already paid. Profile-scoped reformulation trains the CALLER's
// mixture and rates-delta and publishes nothing globally — a user's
// feedback can never race (or pollute) the fleet's shared rates.
//
// CRUD runs outside the admission guard (like /v1/rates — byte-sized
// record writes, no kernel work); the personalized query/reformulate
// paths go through the guard with the rest of the expensive endpoints.
package server

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"strings"

	"authorityflow/internal/core"
	"authorityflow/internal/ir"
	"authorityflow/internal/obs"
	"authorityflow/internal/profile"
)

// WithProfiles enables the personalization tier: profiles persist under
// dir (one checksummed record per profile, atomic replace), and the
// topic basis holds basisSize precomputed fixpoint vectors (0 =
// profile.DefaultBasisSize). dir is required: New fails without it.
// Personalized queries rank their base query through the serving cache,
// sharing its term vectors and solve singleflight.
func WithProfiles(dir string, basisSize int) Option {
	return func(o *serverOptions) {
		o.profileEnabled = true
		o.profileOpts = profile.Options{Dir: dir, BasisSize: basisSize}
	}
}

// maxProfileBody bounds a profile update body (a mixture is at most a
// few dozen term/weight pairs).
const maxProfileBody = 256 << 10

// Profiles exposes the personalization manager (nil when disabled).
func (s *Server) Profiles() *profile.Manager { return s.profiles }

// profileID extracts and validates the {id} segment of /v1/profile/{id}.
func profileID(w http.ResponseWriter, r *http.Request) (string, bool) {
	id := strings.TrimPrefix(r.URL.Path, "/v1/profile/")
	if !profile.ValidID(id) {
		writeError(w, r, http.StatusBadRequest,
			"profile id must be 1..128 bytes of [A-Za-z0-9._-]")
		return "", false
	}
	return id, true
}

// writeProfileError maps personalization-tier errors onto the v1
// surface: ErrNotFound → 404 profile_not_found, everything else 500.
func (s *Server) writeProfileError(w http.ResponseWriter, r *http.Request, id string, err error) {
	if errors.Is(err, profile.ErrNotFound) {
		writeAPIError(w, r, http.StatusNotFound, CodeProfileNotFound,
			"no profile exists under id "+strconv.Quote(id)+"; create it with PUT /v1/profile/"+id)
		return
	}
	writeError(w, r, http.StatusInternalServerError, err.Error())
}

// handleProfile is the /v1/profile/{id} CRUD surface.
func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	if s.profiles == nil {
		writeAPIError(w, r, http.StatusForbidden, CodeInvalidArgument,
			"personalization is disabled: the server was started without a profile store (-profile-dir)")
		return
	}
	id, ok := profileID(w, r)
	if !ok {
		return
	}
	switch r.Method {
	case http.MethodGet:
		p, err := s.profiles.Get(id)
		if err != nil {
			s.writeProfileError(w, r, id, err)
			return
		}
		writeJSON(w, http.StatusOK, profileDTO(p))
	case http.MethodPut, http.MethodPost:
		body, err := io.ReadAll(io.LimitReader(r.Body, maxProfileBody+1))
		if err != nil {
			writeError(w, r, http.StatusBadRequest, "reading body: "+err.Error())
			return
		}
		if len(body) > maxProfileBody {
			writeError(w, r, http.StatusBadRequest, "profile body too large")
			return
		}
		var req ProfileUpdateRequest
		if err := json.Unmarshal(body, &req); err != nil {
			writeError(w, r, http.StatusBadRequest, "bad JSON body: "+err.Error())
			return
		}
		// Updates replace the declared interests but preserve learned
		// state: an existing profile keeps its trained rates-delta and
		// its revision history.
		next := &profile.Profile{ID: id, Mixture: req.Mixture, Beta: req.Beta}
		if prev, err := s.profiles.Get(id); err == nil {
			next.Delta = append([]float64(nil), prev.Delta...)
			next.Rev = prev.Rev
			next.TrainedGeneration = prev.TrainedGeneration
			next.TrainedRatesVersion = prev.TrainedRatesVersion
		}
		stored, err := s.profiles.Put(next)
		if err != nil {
			writeError(w, r, http.StatusBadRequest, err.Error())
			return
		}
		s.obs.profileUpdates.Inc()
		writeJSON(w, http.StatusOK, profileDTO(stored))
	case http.MethodDelete:
		if err := s.profiles.Delete(id); err != nil {
			writeError(w, r, http.StatusInternalServerError, err.Error())
			return
		}
		w.WriteHeader(http.StatusNoContent)
	default:
		w.Header().Set("Allow", "GET, PUT, POST, DELETE")
		writeError(w, r, http.StatusMethodNotAllowed, "GET, PUT, POST or DELETE required")
	}
}

// profileDTO renders a stored profile as the API shape.
func profileDTO(p *profile.Profile) ProfileResponse {
	mix := make(map[string]float64, len(p.Mixture))
	for t, w := range p.Mixture {
		mix[t] = w
	}
	return ProfileResponse{
		ID:                  p.ID,
		Mixture:             mix,
		Beta:                p.Beta,
		Rev:                 p.Rev,
		HasDelta:            len(p.Delta) > 0,
		TrainedGeneration:   p.TrainedGeneration,
		TrainedRatesVersion: p.TrainedRatesVersion,
	}
}

// handleProfileQuery serves GET /v1/query?profile={id}: the
// personalized twin of the global query path, answered by the
// basis-combination fast path. Called from handleQuery once the
// profile parameter is seen; the pin is the request's single engine
// state, exactly as on the global path.
func (s *Server) handleProfileQuery(w http.ResponseWriter, r *http.Request, pin *core.Pinned, id string, q *ir.Query, k int) {
	if s.profiles == nil {
		writeAPIError(w, r, http.StatusForbidden, CodeInvalidArgument,
			"personalization is disabled: the server was started without a profile store (-profile-dir)")
		return
	}
	if !profile.ValidID(id) {
		writeError(w, r, http.StatusBadRequest,
			"profile id must be 1..128 bytes of [A-Za-z0-9._-]")
		return
	}
	ctx := r.Context()
	tr := obs.TraceFrom(ctx)
	ans, src, err := s.profiles.QueryCtx(ctx, pin, id, q, k)
	if err != nil {
		if errors.Is(err, profile.ErrNotFound) {
			s.writeProfileError(w, r, id, err)
			return
		}
		s.writeCtxError(w, r, err)
		return
	}
	tr.Eventf("combine", "profile=%s source=%s personalized=%t", id, src, ans.Personalized)
	s.obs.profileOutcome.With(string(src)).Inc()
	g := pin.Corpus().Graph()
	setStateHeaders(w, ans.Generation, ans.RatesVersion)
	writeJSON(w, http.StatusOK, QueryResponse{
		Query:        q.String(),
		BaseSet:      ans.BaseSet,
		Iterations:   ans.Iterations,
		Version:      ans.RatesVersion,
		Generation:   ans.Generation,
		Cache:        string(src),
		Profile:      id,
		Personalized: ans.Personalized,
		Results:      renderResults(g, q, ans.Results),
	})
}

// handleProfileReformulate finishes GET /v1/reformulate?profile={id}:
// the feedback subgraphs train the named profile (mixture EWMA +
// rates-delta under the profile's effective rates) instead of
// publishing globally. Called from handleReformulate with the parsed
// query, feedback subgraphs and mode already in hand.
func (s *Server) handleProfileReformulate(w http.ResponseWriter, r *http.Request, pin *core.Pinned, id string, q *ir.Query, k int, subs []*core.Subgraph, confidences []float64, opts core.ReformulateOptions) {
	if s.profiles == nil {
		writeAPIError(w, r, http.StatusForbidden, CodeInvalidArgument,
			"personalization is disabled: the server was started without a profile store (-profile-dir)")
		return
	}
	if !profile.ValidID(id) {
		writeError(w, r, http.StatusBadRequest,
			"profile id must be 1..128 bytes of [A-Za-z0-9._-]")
		return
	}
	ctx := r.Context()
	tr := obs.TraceFrom(ctx)
	ref, trained, err := s.profiles.TrainCtx(ctx, pin, id, q, subs, confidences, &opts)
	if err != nil {
		if errors.Is(err, profile.ErrNotFound) {
			s.writeProfileError(w, r, id, err)
			return
		}
		s.writeRunError(w, r, err)
		return
	}
	tr.Eventf("train", "profile=%s rev=%d rates=%s expansion=%d",
		id, trained.Rev, ref.Rates.String(), len(ref.Expansion))
	resp := ReformulateResponse{
		Query:      ref.Query.String(),
		Rates:      ref.Rates.String(),
		Version:    pin.Version(), // training publishes nothing
		Profile:    id,
		ProfileRev: trained.Rev,
	}
	// Answer the reformulated query PERSONALIZED — the round-trip a user
	// actually experiences: feedback in, re-ranked personalized list out.
	ans, src, err := s.profiles.QueryCtx(ctx, pin, id, ref.Query, k)
	if err != nil {
		s.writeCtxError(w, r, err)
		return
	}
	s.obs.profileOutcome.With(string(src)).Inc()
	resp.Results = renderResults(pin.Corpus().Graph(), ref.Query, ans.Results)
	for _, wt := range ref.Expansion {
		resp.Expansion = append(resp.Expansion, ExpansionTerm{Term: wt.Term, Weight: wt.Weight})
	}
	writeJSON(w, http.StatusOK, resp)
}
