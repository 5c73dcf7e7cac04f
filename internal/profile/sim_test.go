// sim_test.go is the personalization load harness: N simulated users —
// drawn from a small pool of interest archetypes — create profiles and
// run personalized queries through a real admission-controlled HTTP
// server, and the harness checks that personalized answers track each
// user's archetype strictly better than the global ranking does.
//
// The default N keeps the tier-1 run fast; the acceptance-scale run is
//
//	AFQ_PROFILE_SIM_N=100000 go test ./internal/profile/ -run TestProfileSim -v -timeout 1800s
//
// which pushes 10^5 distinct profiles (one durable record each) through
// the same server.
package profile_test

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"authorityflow/internal/core"
	"authorityflow/internal/datagen"
	"authorityflow/internal/rank"
	"authorityflow/internal/server"
)

// simN returns the simulated-user count: AFQ_PROFILE_SIM_N, else 300.
func simN(t *testing.T) int {
	if raw := os.Getenv("AFQ_PROFILE_SIM_N"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n <= 0 {
			t.Fatalf("AFQ_PROFILE_SIM_N = %q: not a positive integer", raw)
		}
		return n
	}
	return 300
}

// archetype is one interest pattern shared by many simulated users: a
// topic mixture, the query its users issue, and (once measured) the
// reference personalized top-k that mixture produces.
type archetype struct {
	mixture map[string]float64
	query   string
	truth   map[int64]bool // reference personalized top-k node set
}

func TestProfileSimulatedUsers(t *testing.T) {
	n := simN(t)
	cfg := datagen.DBLPTopConfig().Scale(0.02)
	cfg.Seed = 4
	ds, err := datagen.GenerateDBLP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := server.New(ds, core.Config{Rank: rank.Options{Threshold: 1e-6, MaxIters: 300}},
		server.WithCache(32<<20, 0),
		server.WithProfiles(t.TempDir(), 0),
		server.WithAdmission(server.AdmissionOptions{
			MaxInflight: 8,
			QueueWait:   30 * time.Second,
		}))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := server.NewClient(ts.URL, &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 64},
	})
	ctx := context.Background()

	// Archetypes: disjoint 3-term mixtures over the basis panel, each
	// querying a term OUTSIDE its mixture — so the personalized answer
	// genuinely re-ranks the query's results toward the archetype's
	// interests rather than just re-asking for them.
	pin := s.Engine().Pin()
	basis, err := s.Profiles().BasisFor(ctx, pin)
	if err != nil {
		t.Fatal(err)
	}
	terms := basis.Terms()
	const nArch = 16
	if len(terms) < 3*nArch+nArch {
		t.Fatalf("basis too small for %d archetypes: %d terms", nArch, len(terms))
	}
	const k = 10
	archetypes := make([]*archetype, nArch)
	for i := range archetypes {
		archetypes[i] = &archetype{
			mixture: map[string]float64{
				terms[3*i]:   0.5,
				terms[3*i+1]: 0.3,
				terms[3*i+2]: 0.2,
			},
			query: terms[3*nArch+i],
		}
	}

	// Reference pass: one profile per archetype measures the truth set
	// (the personalized top-k for that mixture) and the global baseline
	// precision against it.
	globalHits, personalizedRefs := 0, 0
	for i, a := range archetypes {
		refID := fmt.Sprintf("archetype-%02d", i)
		if _, err := client.ProfileUpdate(ctx, refID, server.ProfileUpdateRequest{Mixture: a.mixture}); err != nil {
			t.Fatal(err)
		}
		ref, err := client.QueryProfile(ctx, a.query, k, refID)
		if err != nil {
			t.Fatal(err)
		}
		if ref.Personalized {
			personalizedRefs++
		}
		a.truth = make(map[int64]bool, len(ref.Results))
		for _, res := range ref.Results {
			a.truth[res.Node] = true
		}
		global, err := client.Query(ctx, a.query, k)
		if err != nil {
			t.Fatal(err)
		}
		for _, res := range global.Results {
			if a.truth[res.Node] {
				globalHits++
			}
		}
	}
	if personalizedRefs != nArch {
		t.Fatalf("only %d/%d archetype references answered personalized", personalizedRefs, nArch)
	}
	globalPrecision := float64(globalHits) / float64(nArch*k)

	// Load pass: n users, each creating a durable profile and running a
	// personalized query, fanned over a worker pool wide enough to keep
	// the admission guard saturated (workers > MaxInflight).
	workers := 32
	if n < workers {
		workers = n
	}
	var (
		wg        sync.WaitGroup
		userHits  atomic.Int64
		userTotal atomic.Int64
		failures  atomic.Int64
		firstErr  atomic.Value
	)
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for u := range jobs {
				a := archetypes[u%nArch]
				id := fmt.Sprintf("user-%06d", u)
				if _, err := client.ProfileUpdate(ctx, id, server.ProfileUpdateRequest{Mixture: a.mixture}); err != nil {
					failures.Add(1)
					firstErr.CompareAndSwap(nil, fmt.Errorf("%s update: %w", id, err))
					continue
				}
				ans, err := client.QueryProfile(ctx, a.query, k, id)
				if err != nil {
					failures.Add(1)
					firstErr.CompareAndSwap(nil, fmt.Errorf("%s query: %w", id, err))
					continue
				}
				if !ans.Personalized {
					failures.Add(1)
					firstErr.CompareAndSwap(nil, fmt.Errorf("%s answered unpersonalized", id))
					continue
				}
				hits := 0
				for _, res := range ans.Results {
					if a.truth[res.Node] {
						hits++
					}
				}
				userHits.Add(int64(hits))
				userTotal.Add(int64(len(ans.Results)))
			}
		}()
	}
	start := time.Now()
	for u := 0; u < n; u++ {
		jobs <- u
	}
	close(jobs)
	wg.Wait()
	elapsed := time.Since(start)

	if f := failures.Load(); f > 0 {
		t.Fatalf("%d/%d users failed; first: %v", f, n, firstErr.Load())
	}
	personalPrecision := float64(userHits.Load()) / float64(userTotal.Load())
	t.Logf("users=%d archetypes=%d elapsed=%s (%.0f users/s)", n, nArch, elapsed,
		float64(n)/elapsed.Seconds())
	t.Logf("mean precision@%d: personalized=%.4f global=%.4f", k, personalPrecision, globalPrecision)
	if personalPrecision <= globalPrecision {
		t.Fatalf("personalized precision %.4f not strictly above global baseline %.4f",
			personalPrecision, globalPrecision)
	}

	st := s.Profiles().Stats()
	if st.Resident == 0 || st.Combines == 0 {
		t.Fatalf("manager stats show no personalized serving: %+v", st)
	}
	t.Logf("manager: %d resident profiles, %d combines, %d answer hits, %d store bytes",
		st.Resident, st.Combines, st.AnswerHits, st.StoreBytes)
}
