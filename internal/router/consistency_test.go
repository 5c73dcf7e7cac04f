package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"authorityflow/internal/server"
)

// TestRouterConsistencyHammer is the scale-out consistency gauntlet,
// meant to run under -race: queries stream through a 2-replica router
// while /v1/reformulate publishes new rate vectors fleet-wide and
// /v1/corpus/swap flips generations, with health sweeps resyncing
// laggards the whole time. Every routed answer must be BYTE-IDENTICAL
// to what the replica that served it (named by the X-Afq-Router-Replica
// header) returns directly at the same (generation, ratesVersion) —
// the router may fail a request (409/503 are legitimate under version
// churn) but it may never alter or hybridize an answer.
//
// Cross-replica answers at the same version are intentionally NOT
// compared bitwise: replicas warm-start power iteration from their own
// solve histories, so their converged vectors agree only to the solver
// threshold, not bit-for-bit.
func TestRouterConsistencyHammer(t *testing.T) {
	f := newFleet(t, 2)

	// The fixture disables the background sweep; the hammer needs it
	// live so down-marking and catch-up resync race with the traffic.
	sweepCtx, stopSweep := context.WithCancel(context.Background())
	var sweeper sync.WaitGroup
	sweeper.Add(1)
	go func() {
		defer sweeper.Done()
		for sweepCtx.Err() == nil {
			f.rt.CheckNow(sweepCtx)
			time.Sleep(20 * time.Millisecond)
		}
	}()
	defer sweeper.Wait()
	defer stopSweep()

	terms := []string{"olap", "xml", "mining", "query", "index", "search", "web", "join"}

	// answers accumulates bodies keyed by (generation, version, query,
	// k, servingReplica). A replica's answer at a fixed version is
	// deterministic, so a key seen twice must carry identical bytes —
	// whether both sightings were routed, both direct, or one of each.
	var mu sync.Mutex
	answers := map[string][]byte{}
	record := func(key string, body []byte) {
		body = provenance.ReplaceAll(body, nil)
		mu.Lock()
		defer mu.Unlock()
		if prev, seen := answers[key]; seen {
			if !bytes.Equal(prev, body) {
				// Report outside the lock-free path; testing.T is safe for
				// concurrent use.
				t.Errorf("divergent answers for %s:\nfirst:  %.120s\nsecond: %.120s", key, prev, body)
			}
			return
		}
		answers[key] = body
	}
	answerKey := func(gen, rv uint64, q string, replica string) string {
		return fmt.Sprintf("g%d.v%d.q=%s.k=10@%s", gen, rv, q, replica)
	}

	var wg sync.WaitGroup

	// Routed readers: hammer /v1/query through the router.
	const readerIters = 60
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < readerIters; i++ {
				q := terms[(g+i)%len(terms)]
				resp, err := http.Get(f.front.URL + "/v1/query?q=" + q + "&k=10")
				if err != nil {
					t.Errorf("routed query transport error: %v", err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case 200:
					served := resp.Header.Get(HeaderServedBy)
					if served == "" {
						t.Error("200 routed answer without a serving-replica header")
						return
					}
					var probe struct{ Version, Generation uint64 }
					if err := json.Unmarshal(body, &probe); err != nil {
						t.Errorf("undecodable routed answer: %v", err)
						return
					}
					record(answerKey(probe.Generation, probe.Version, q, served), body)
				case 409, 503:
					// Legitimate under version churn / swap windows.
				default:
					t.Errorf("routed query %q = %d: %.200s", q, resp.StatusCode, body)
					return
				}
			}
		}(g)
	}

	// Direct readers: the reference stream, one per replica, recording
	// under the same keys.
	for ri, u := range f.urls {
		wg.Add(1)
		go func(ri int, u string) {
			defer wg.Done()
			for i := 0; i < readerIters; i++ {
				q := terms[(ri+i)%len(terms)]
				resp, err := http.Get(u + "/v1/query?q=" + q + "&k=10")
				if err != nil {
					return // replica churn mid-swap; the routed stream is the subject
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 {
					continue
				}
				var probe struct{ Version, Generation uint64 }
				if err := json.Unmarshal(body, &probe); err != nil {
					t.Errorf("undecodable direct answer: %v", err)
					return
				}
				record(answerKey(probe.Generation, probe.Version, q, u), body)
			}
		}(ri, u)
	}

	// Reformulator: publishes new rate vectors through the router,
	// racing the readers. Conflicts (another publish or a swap won) and
	// post-swap stale feedback IDs are expected outcomes, not failures.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 15; i++ {
			code, body := get(t, f.front.URL+"/v1/query?q=olap&k=3")
			if code != 200 {
				continue
			}
			var qr server.QueryResponse
			if err := json.Unmarshal(body, &qr); err != nil || len(qr.Results) < 2 {
				continue
			}
			url := fmt.Sprintf("%s/v1/reformulate?q=olap&feedback=%d,%d&mode=structure&version=%d",
				f.front.URL, qr.Results[0].Node, qr.Results[1].Node, qr.Version)
			resp, err := http.Get(url)
			if err != nil {
				t.Errorf("reformulate transport error: %v", err)
				return
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			switch resp.StatusCode {
			case 200, 400, 409, 503:
			default:
				t.Errorf("reformulate = %d: %.200s", resp.StatusCode, raw)
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()

	// Swapper: flips the fleet's corpus generation through the router.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 6; i++ {
			code, body := postJSON(t, f.front.URL+"/v1/corpus/swap", server.CorpusSwapRequest{Snapshot: "next.snap"})
			switch code {
			case 200, 409, 502, 503:
			default:
				t.Errorf("swap = %d: %.200s", code, body)
				return
			}
			time.Sleep(25 * time.Millisecond)
		}
	}()

	wg.Wait()
	stopSweep()
	sweeper.Wait()

	// The storm is sampling-based; require real overlap so the identity
	// assertion inside record() actually fired.
	mu.Lock()
	recorded := len(answers)
	mu.Unlock()
	if recorded == 0 {
		t.Fatal("hammer recorded no successful answers")
	}

	// Quiesce and verify the fleet converged: both replicas on the same
	// (generation, ratesVersion) with elementwise-identical rate
	// vectors.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	f.rt.CheckNow(ctx)
	var ref *server.RatesResponse
	var refHealth server.HealthResponse
	for i, u := range f.urls {
		_, raw := get(t, u+"/v1/rates")
		var rts server.RatesResponse
		if err := json.Unmarshal(raw, &rts); err != nil {
			t.Fatal(err)
		}
		_, hraw := get(t, u+"/v1/healthz")
		var h server.HealthResponse
		if err := json.Unmarshal(hraw, &h); err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref, refHealth = &rts, h
			continue
		}
		if rts.Version != ref.Version || h.Generation != refHealth.Generation {
			t.Errorf("fleet did not converge: replica %d at (gen %d, v %d), replica 0 at (gen %d, v %d)",
				i, h.Generation, rts.Version, refHealth.Generation, ref.Version)
		}
		for j := range rts.Vector {
			if rts.Vector[j] != ref.Vector[j] {
				t.Errorf("post-storm vector[%d] differs: %v vs %v", j, rts.Vector[j], ref.Vector[j])
			}
		}
	}

	// Deterministic final pass: for every term, the routed answer must
	// be byte-identical to the serving replica's direct answer.
	for _, q := range terms {
		resp, err := http.Get(f.front.URL + "/v1/query?q=" + q + "&k=10")
		if err != nil {
			t.Fatal(err)
		}
		_, routed := readBody(t, resp)
		if resp.StatusCode != 200 {
			t.Fatalf("post-storm routed query %q = %d: %s", q, resp.StatusCode, routed)
		}
		served := resp.Header.Get(HeaderServedBy)
		_, direct := get(t, served+"/v1/query?q="+q+"&k=10")
		if !bytes.Equal(routed, direct) {
			t.Errorf("post-storm %q: routed body differs from %s's direct answer", q, served)
		}
	}
}
