// profile.go wires the per-user personalization tier (internal/profile)
// into the HTTP surface:
//
//	GET|PUT|POST|DELETE /v1/profile/{id}   profile CRUD
//	GET /v1/query?q=...&profile={id}       personalized ranking
//	GET /v1/reformulate?...&profile={id}   profile-scoped training
//
// Personalized queries ride the blend fast path: the profile's topic
// mixture weights its terms' fixpoints, read through the serving cache
// like any term vector, against the query's own (cached) fixpoint, so a
// personalized answer costs one O(|mixture|·|V|) vector blend on top of
// whatever the global tier already paid, plus a solve of the mixture
// terms the cache does not hold. Every vector in the blend is solved
// under the published rates. Profile-scoped reformulation trains the
// CALLER's mixture and publishes nothing globally — a user's feedback
// can never race (or pollute) the fleet's shared rates.
//
// CRUD runs outside the admission guard (like /v1/rates — byte-sized
// record writes, no kernel work); the personalized query/reformulate
// paths are the guarded /v1/query and /v1/reformulate, which read
// ?profile= through resolveProfile.
package server

import (
	"net/http"
	"strings"

	"authorityflow/internal/cache"
	"authorityflow/internal/core"
	"authorityflow/internal/ir"
	"authorityflow/internal/profile"
)

// WithProfiles enables the personalization tier: profiles persist under
// dir (one checksummed record per profile, atomic replace), and a
// mixture may weight the basisSize most frequent terms of the corpus (0
// = profile.DefaultBasisSize). dir is required: New fails without it.
// Personalized queries read their base query and their mixture terms'
// vectors through the serving cache, sharing its term vectors.
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

var (
	errProfilesDisabled = &APIError{Status: http.StatusForbidden, Code: CodeInvalidArgument,
		Message: "personalization is disabled: the server was started without a profile store (-profile-dir)"}
	errProfileID     = badRequest("profile id must be 1..128 bytes of [A-Za-z0-9._-]")
	errProfileMethod = &APIError{Status: http.StatusMethodNotAllowed, Code: CodeInvalidArgument,
		Message: "GET, PUT, POST or DELETE required", Allow: "GET, PUT, POST, DELETE"}
)

// checkProfile says whether a request may address the profile id.
func (s *Server) checkProfile(id string) error {
	if s.profiles == nil {
		return errProfilesDisabled
	}
	if !profile.ValidID(id) {
		return errProfileID
	}
	return nil
}

// resolveProfile reads ?profile=: absent is the global path. Profiles
// personalize the authority flow system — a blend reads authority term
// vectors — so a profile-scoped read must be mode=authority.
func (s *Server) resolveProfile(rq *request) error {
	id := rq.v.Get("profile")
	if id == "" {
		return nil
	}
	if rq.rp.Mode != core.ModeAuthority {
		return badRequest("profile-scoped queries support only mode=authority")
	}
	if err := s.checkProfile(id); err != nil {
		return err
	}
	rq.profile = id
	return nil
}

// personal answers q from the request's profile: the blend under
// the pin, in the serving cache's answer shape so it renders like a
// global answer; the bool is whether the mixture moved the ranking. It
// counts the provenance and emits the combine event.
func (s *Server) personal(rq *request, q *ir.Query) (*cache.Answer, bool, error) {
	a, src, err := s.profiles.QueryCtx(rq.ctx, rq.pin, rq.profile, q, rq.k)
	if err != nil {
		return nil, false, err
	}
	personalized := src != profile.SourceGlobal
	rq.tr.Eventf("combine", "profile=%s source=%s personalized=%t", rq.profile, src, personalized)
	s.obs.profileOutcome.With(string(src)).Inc()
	return a, personalized, nil
}

// profileEndpoint is the /v1/profile/{id} CRUD surface.
var profileEndpoint = endpoint{pattern: "/v1/profile/", parse: (*Server).parseProfileCRUD, run: (*Server).runProfileCRUD}

// parseProfileCRUD reads the id, checks the server may address it, and
// reads an update's body.
func (s *Server) parseProfileCRUD(rq *request, r *http.Request) (string, error) {
	rq.profile = strings.TrimPrefix(r.URL.Path, "/v1/profile/")
	if err := s.checkProfile(rq.profile); err != nil {
		return "", err
	}
	switch rq.method {
	case http.MethodPut, http.MethodPost:
		if err := readJSON(r, maxProfileBody, "profile body too large", &rq.update); err != nil {
			return "", err
		}
	case http.MethodGet, http.MethodDelete:
	default:
		return "", errProfileMethod
	}
	return "profile=" + rq.profile + " method=" + rq.method, nil
}

// runProfileCRUD applies one CRUD request and answers the profile it
// leaves, or the 204 after a delete.
func (s *Server) runProfileCRUD(rq *request) (reply, error) {
	var p *profile.Profile
	var err error
	switch rq.method {
	case http.MethodDelete:
		return reply{}, s.profiles.Delete(rq.profile)
	case http.MethodGet:
		if p, err = s.profiles.Get(rq.profile); err != nil {
			return reply{}, err
		}
	default:
		// The manager keeps the revision and trained stamps.
		if p, err = s.profiles.Put(&profile.Profile{ID: rq.profile, Mixture: rq.update.Mixture, Beta: rq.update.Beta}); err != nil {
			return reply{}, badRequest(err.Error())
		}
		s.obs.profileUpdates.Inc()
	}
	mix := make(map[string]float64, len(p.Mixture))
	for t, w := range p.Mixture {
		mix[t] = w
	}
	return reply{what: "mixture", n: len(mix), json: ProfileResponse{
		ID:                  p.ID,
		Mixture:             mix,
		Beta:                p.Beta,
		Rev:                 p.Rev,
		TrainedGeneration:   p.TrainedGeneration,
		TrainedRatesVersion: p.TrainedRatesVersion,
	}}, nil
}
