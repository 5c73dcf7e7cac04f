// profile.go routes the personalization tier across the fleet. Profile
// records are REPLICA-LOCAL state (one durable record on the owning
// replica's disk, its decoded copy and its cached answers), so profile
// traffic is rendezvous-routed by PROFILE ID — not by query term set —
// and is strictly owner-dispatched: a profile's reads, writes,
// personalized queries and training rounds all land on the one replica
// that holds the record. There is NO failover — a "failover" replica
// has no record (spurious 404) or a stale one (lost training), both
// worse than an honest 503 while the owner is down.
package router

import (
	"net/http"

	"authorityflow/internal/server"
)

// profileKey is the rendezvous key of a profile id. The "p\x00" prefix
// keeps the profile key space disjoint from query term-set keys, so a
// profile id that happens to spell a keyword does not co-locate with
// that keyword's query traffic.
func profileKey(id string) string { return "p\x00" + id }

// writeOwnerDown renders the owner-unavailable shed: unlike the generic
// no-replica shed it names the one replica that can serve this profile.
func (rt *Router) writeOwnerDown(w http.ResponseWriter, r *http.Request, owner *replica) {
	server.Fail(w, r, &server.APIError{Status: http.StatusServiceUnavailable, Code: server.CodeShed, RetryAfter: "1",
		Message: "profile owner " + owner.url + " is down; profile state is replica-local, so there is no failover — retry when it recovers"})
}

// handleProfile proxies /v1/profile/{id} CRUD to the id's owner,
// whatever the floor: the record is the owner's alone. Only GET may be
// re-sent — an update bumps the profile revision, so a lost reply must
// surface rather than silently re-send.
func (rt *Router) handleProfile(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Path[len("/v1/profile/"):]
	if id == "" {
		server.Fail(w, r, badRequest("profile id required"))
		return
	}
	rt.dispatchOwner(w, r, id, false, r.Method == http.MethodGet)
}

// dispatchOwner sends anything carrying a profile id to the id's
// rendezvous owner and to nobody else: the walk's order is the owner
// alone, dead or alive — ownership does not move on failure, because
// the record would not move with it. gated is set for personalized
// reads and training (/v1/query?profile=, /v1/reformulate?profile=): a
// personalized answer must reflect coordinated fleet state like any
// other, so an owner below the floor gets the same 409 a stale replica
// would — retryable once resync catches it up — never a silent
// downgrade onto a replica without the profile. Training publishes
// NOTHING globally (no writeMu, no propagation, no version advance) but
// mutates the record, so it is not idempotent and a lost reply leaves
// the owner's state unknown, exactly like the global reformulation's
// owner leg: resend is set for reads alone, and a write or training
// round whose reply was lost answers 502 "state unknown", never the
// owner-down 503 that invites a blind re-send.
func (rt *Router) dispatchOwner(w http.ResponseWriter, r *http.Request, id string, gated, resend bool) {
	var floorGen, floorRV uint64
	if gated {
		var ok bool
		if floorGen, floorRV, ok = rt.effectiveFloor(w, r); !ok {
			return
		}
	}
	body, ok := rt.readBody(w, r)
	if !ok {
		return
	}
	key := profileKey(id)
	order := rt.rendezvousRank(key)[:1]
	owner, _, behind := rt.walk(order, floorGen, floorRV)
	switch {
	case behind:
		rt.writeNoReplica(w, r, true)
		return
	case owner == nil:
		rt.writeOwnerDown(w, r, order[0])
		return
	}
	resp, err := rt.forward(r, owner, key, body, resend)
	switch {
	case err == nil:
		rt.reply(w, r, owner, resp)
	case r.Context().Err() != nil: // client gone; nothing to answer
	case !resend:
		// The owner was up and may have applied the write or the
		// training round: its state is unknown, not down.
		server.Fail(w, r, badGateway(
			"profile owner "+owner.url+" failed mid-write; its state is unknown — read the profile back before retrying"))
	default:
		// A read whose one re-send also failed.
		rt.writeOwnerDown(w, r, owner)
	}
}
