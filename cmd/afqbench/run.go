package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"authorityflow/internal/server"
)

// config is one invocation's settings. The command line sets the first
// seven; the last three are defaultConfig's, and only tests change them.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	binDir   string // holds afqserver and afqrouter
	tmpDir   string // where snapshots and profile dirs are made
	outDir   string // where the traced run writes its span file
	// scale is the dblptop scale factor of the corpus.
	scale float64
	// clients is the number of closed-loop connections.
	clients int
	// setups is how many times an untraced run sets the system up; the
	// median is setup_s and the last one is measured.
	setups int
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run reports. The first four fields are the
// driver's contract; the rest explain them.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	Workload string `json:"-"`
	Seed     int64  `json:"-"`
	Trace    bool   `json:"-"`
	// Samples counts the observations behind each latency metric.
	Samples map[string]int `json:"-"`
	// Notes lists failed operations, oracle mismatches and mechanism
	// assertions that did not hold.
	Notes []string `json:"-"`
	// Filled names the end-to-end latencies of operations the workload
	// never issues. The driver wants every metric from every run, so
	// each of them repeats the run's query_p50_ms; it belongs to no
	// result set and to no comparison.
	Filled map[string]bool `json:"-"`
	// SliceIQR is loadgen.slice_iqr_ratio: how much the slice medians
	// moved within the run (guardIQR).
	SliceIQR float64 `json:"-"`
	// Steal is the share of CPU time the hypervisor took during the
	// timed phase, QuietSlices how many of its slices it left alone.
	Steal       float64 `json:"-"`
	QuietSlices int     `json:"-"`
	// RequeryP50 is the plain median in ms of the Requeries requeries a
	// session_feedback run timed; see endToEnd for why it is not gated.
	RequeryP50 float64 `json:"-"`
	Requeries  int     `json:"-"`
	// SolvedShare is the share of a session_feedback run's first queries
	// that the server answered by a solve; query_p50_ms is their median.
	SolvedShare float64 `json:"-"`
}

// Mechanism thresholds: a workload that stops stressing what it claims
// fails its run.
const (
	hotMinResultHitRatio  = 0.99
	coldMaxResultHitRatio = 0.05
	coldMinBusyShare      = 0.5
	sessionMinPublishRate = 1.0 // per second of granted time
	fleetMinReplicaShare  = 0.25
)

// scrape is one reading of every counter the system exposes.
type scrape struct {
	at     time.Time
	stats  []server.StatsResponse // per afqserver
	prom   []promSamples          // per afqserver
	router promSamples            // nil without a router
	cpu    []float64              // CPU seconds per process, servers first
	host   hostCPU
}

func scrapeProm(ctx context.Context, p *proc) (promSamples, error) {
	body, err := httpGetBody(ctx, p.url()+"/metrics")
	if err != nil {
		return nil, err
	}
	return parsePromText(string(body))
}

func takeScrape(d *deployment) (*scrape, error) {
	s := &scrape{at: time.Now()}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, p := range d.servers {
		body, err := httpGetBody(ctx, p.url()+"/v1/stats")
		if err != nil {
			return nil, err
		}
		var st server.StatsResponse
		if err := json.Unmarshal(body, &st); err != nil {
			return nil, fmt.Errorf("decoding /v1/stats: %w", err)
		}
		s.stats = append(s.stats, st)
		ps, err := scrapeProm(ctx, p)
		if err != nil {
			return nil, err
		}
		s.prom = append(s.prom, ps)
	}
	if d.router != nil {
		var err error
		if s.router, err = scrapeProm(ctx, d.router); err != nil {
			return nil, err
		}
	}
	for _, p := range d.all() {
		c, err := procCPUSeconds(p.cmd.Process.Pid)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		s.cpu = append(s.cpu, c)
	}
	host, err := readHostCPU()
	if err != nil {
		return nil, err
	}
	s.host = host
	return s, nil
}

// counters is the change of the system's counters over a phase, summed
// over the afqservers.
type counters struct {
	wall            float64
	resultHits      float64
	resultMisses    float64
	vectorHits      float64
	vectorMisses    float64
	vectorEvictions float64
	computes        float64
	dedup           float64
	warmStarts      float64
	prewarmed       float64
	bytesResident   float64 // at the end of the phase
	solves          float64
	warmSolves      float64
	iterations      float64
	kernelSeconds   float64
	publishes       float64
	answerHits      float64
	answerMisses    float64
	shed            float64
	timeouts        float64
	serverCPU       float64
	routerCPU       float64
	failovers       float64
	staleSkips      float64
	batchGroups     float64
	batchRequests   float64
	steal           float64
	// sliceSteal is the steal share of each slice of the phase.
	sliceSteal []float64
}

func deltaCounters(before, after *scrape) counters {
	c := counters{wall: after.at.Sub(before.at).Seconds(), steal: stealShare(before.host, after.host)}
	for i := range after.stats {
		a, b := after.stats[i], before.stats[i]
		if a.Cache != nil && b.Cache != nil {
			c.resultHits += float64(a.Cache.Result.Hits - b.Cache.Result.Hits)
			c.resultMisses += float64(a.Cache.Result.Misses - b.Cache.Result.Misses)
			c.vectorHits += float64(a.Cache.Vector.Hits - b.Cache.Vector.Hits)
			c.vectorMisses += float64(a.Cache.Vector.Misses - b.Cache.Vector.Misses)
			c.vectorEvictions += float64(a.Cache.Vector.Evictions - b.Cache.Vector.Evictions)
			c.computes += float64(a.Cache.Computes - b.Cache.Computes)
			c.dedup += float64(a.Cache.SingleflightDedup - b.Cache.SingleflightDedup)
			c.warmStarts += float64(a.Cache.WarmStarts - b.Cache.WarmStarts)
			c.prewarmed += float64(a.Cache.Prewarmed - b.Cache.Prewarmed)
			c.bytesResident += float64(a.Cache.Vector.Bytes + a.Cache.Result.Bytes)
		}
		if a.Profile != nil && b.Profile != nil {
			c.answerHits += float64(a.Profile.AnswerHits - b.Profile.AnswerHits)
			c.answerMisses += float64(a.Profile.AnswerMisses - b.Profile.AnswerMisses)
		}
		c.solves += float64(a.Kernel.Solves - b.Kernel.Solves)
		c.warmSolves += float64(a.Kernel.WarmSolves - b.Kernel.WarmSolves)
		c.iterations += float64(a.Kernel.IterationsTotal - b.Kernel.IterationsTotal)
		c.publishes += float64(a.RatesVersion - b.RatesVersion)
		d := after.prom[i].delta(before.prom[i])
		c.kernelSeconds += d["afq_kernel_solve_seconds_sum"]
		c.shed += d["afq_http_shed_total"]
		c.timeouts += d["afq_http_timeout_total"]
		c.serverCPU += after.cpu[i] - before.cpu[i]
	}
	if after.router != nil {
		d := after.router.delta(before.router)
		c.failovers = d["afq_router_failover_total"]
		c.staleSkips = d["afq_router_stale_skips_total"]
		c.batchGroups = d["afq_router_batch_groups_sum"]
		c.batchRequests = d["afq_router_batch_groups_count"]
		last := len(after.cpu) - 1
		c.routerCPU = after.cpu[last] - before.cpu[last]
	}
	return c
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// mechanism checks that the phase stressed what the workload claims.
func mechanism(wl string, c counters, t *tally) []string {
	var bad []string
	fail := func(format string, args ...any) { bad = append(bad, "mechanism: "+fmt.Sprintf(format, args...)) }
	hit := ratio(c.resultHits, c.resultHits+c.resultMisses)
	switch wl {
	case wlHotZipf:
		if hit < hotMinResultHitRatio {
			fail("result-hit ratio %.4f is under %.2f", hit, hotMinResultHitRatio)
		}
		if c.solves != 0 {
			fail("%.0f kernel solves in a phase that should run none", c.solves)
		}
	case wlColdUniform:
		if hit > coldMaxResultHitRatio {
			fail("result-hit ratio %.4f is over %.2f", hit, coldMaxResultHitRatio)
		}
		if c.vectorEvictions <= 0 {
			fail("no term vector was evicted")
		}
		if busy := ratio(c.kernelSeconds, c.wall); busy < coldMinBusyShare {
			fail("kernel busy share %.3f is under %.2f", busy, coldMinBusyShare)
		}
	case wlSessionFeedback:
		// Per second of granted time, like the latencies: a host that
		// takes half the CPU away halves the sessions a run gets
		// through, and that says nothing about the workload.
		if rate := ratio(c.publishes, c.wall*(1-c.steal)); rate < sessionMinPublishRate {
			fail("%.2f publishes per second of granted time, under %.1f", rate, sessionMinPublishRate)
		}
		if c.warmStarts <= 0 {
			fail("no solve was warm-started from the previous rates version")
		}
	case wlFleetMix:
		total := 0
		for _, n := range t.replicas {
			total += n
		}
		if len(t.replicas) < 2 {
			fail("%d replica(s) served the singles", len(t.replicas))
		}
		for r, n := range t.replicas {
			if share := ratio(float64(n), float64(total)); share < fleetMinReplicaShare {
				fail("replica %s served %.3f of the singles, under %.2f", r, share, fleetMinReplicaShare)
			}
		}
		if c.failovers != 0 {
			fail("%.0f failovers", c.failovers)
		}
	}
	return bad
}

// staged is a system set up and warmed, ready to be measured.
type staged struct {
	d        *deployment
	snapshot string
	v        *vocab
	e        *env
	took     time.Duration
}

// setup generates the corpus, writes its snapshot into dir, boots the
// workload's processes from it and warms them up. Its duration is what
// setup_s reports: everything between an empty directory and a system
// ready for the first timed request, except compiling.
func setup(cfg config, dir string) (*staged, error) {
	t0 := time.Now()
	cpu0, cpuErr := readHostCPU()
	cp, err := generateCorpus(cfg.scale)
	if err != nil {
		return nil, err
	}
	s := &staged{snapshot: filepath.Join(dir, "corpus.snap"), v: cp.vocab()}
	if len(s.v.Head) < 16 || len(s.v.Tail) < 8 {
		return nil, fmt.Errorf("corpus at scale %g is too small: %d head and %d tail terms", cfg.scale, len(s.v.Head), len(s.v.Tail))
	}
	if _, err = cp.writeSnapshot(s.snapshot); err != nil {
		return nil, err
	}
	wl := workloadDefs[cfg.workload]
	if s.d, err = deploy(wl, cfg.binDir, dir, s.snapshot); err != nil {
		return nil, err
	}
	s.e = &env{wl: cfg.workload, target: s.d.target(), clients: cfg.clients, pub: &publisher{}}
	if err := s.warm(cfg); err != nil {
		s.d.stop()
		return nil, err
	}
	s.took = time.Since(t0)
	if cpu1, err := readHostCPU(); err == nil && cpuErr == nil {
		// In granted time, like the latencies: see granted.
		s.took = time.Duration(float64(s.took) * (1 - stealShare(cpu0, cpu1)))
	}
	return s, nil
}

// warm sends the workload's warm-up, spread over the run's connections.
// Any failure fails the setup.
func (s *staged) warm(cfg config) error {
	var steps []step
	if cfg.workload == wlFleetMix {
		s.e.singles = make(map[string][]server.Result)
		c := newClient()
		defer c.close()
		for i, mix := range profileMixtures(cfg.seed, s.v) {
			body, err := json.Marshal(server.ProfileUpdateRequest{Mixture: mix})
			if err != nil {
				return err
			}
			status, _, resp, _, err := c.do(s.e.target, wireRequest{Method: http.MethodPut, Path: "/v1/profile/" + profileID(i), Body: body})
			if err != nil || status != http.StatusOK {
				return fmt.Errorf("warm-up: storing profile %s: status %d, %v: %s", profileID(i), status, err, truncate(resp, 200))
			}
			// One personalised query per profile: the first on each
			// replica builds its topic basis, which no timed request
			// should pay for.
			steps = append(steps, step{Kind: opProfileQuery, Q: s.v.Head[i%len(s.v.Head)], K: 10, Profile: profileID(i)})
		}
	}
	steps = append(steps, warmup(cfg.workload, cfg.seed, s.v)...)

	tallies := make([]*tally, cfg.clients)
	answers := make([]*answer, len(steps))
	var wg sync.WaitGroup
	start := time.Now()
	for w := range tallies {
		tallies[w] = &tally{}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := newClient()
			defer c.close()
			for i := w; i < len(steps); i += cfg.clients {
				answers[i] = s.e.issue(c, steps[i], nil, tallies[w], start, false)
			}
		}(w)
	}
	wg.Wait()
	for _, t := range tallies {
		if t.failed > 0 {
			return fmt.Errorf("warm-up: %d of %d requests failed: %v", t.failed, t.attempted, t.failures)
		}
	}
	for i, a := range answers {
		if steps[i].Kind != opQuery {
			continue
		}
		s.e.pub.version = a.Query.Version
		if s.e.singles != nil {
			s.e.singles[steps[i].Q] = a.Query.Results
		}
	}
	return s.d.checkAlive()
}

// runOnce is one invocation: set up, measure for cfg.seconds, check,
// tear down.
func runOnce(cfg config) (*result, error) {
	if _, ok := workloadDefs[cfg.workload]; !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloadNames)
	}
	if err := os.MkdirAll(cfg.tmpDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.tmpDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if cfg.trace {
		return runTraced(cfg, dir)
	}

	// Set up several times and keep the last: one setup's duration
	// moves with whatever else the host is doing, their median less so.
	var s *staged
	var took []float64
	for i := 0; i < cfg.setups; i++ {
		if s != nil {
			s.d.stop()
		}
		sub := filepath.Join(dir, fmt.Sprintf("setup-%d", i))
		if err := os.Mkdir(sub, 0o755); err != nil {
			return nil, err
		}
		if s, err = setup(cfg, sub); err != nil {
			return nil, err
		}
		took = append(took, s.took.Seconds())
	}
	defer s.d.stop()

	span := time.Duration(cfg.seconds) * time.Second
	t, c, err := s.measure(cfg, span)
	if err != nil {
		return nil, err
	}
	r := newResult(cfg, t)
	r.Notes = append(r.Notes, mechanism(cfg.workload, c, t)...)
	if err := s.oracle(cfg, t, r); err != nil {
		return nil, err
	}

	rss := 0.0
	for _, p := range s.d.all() {
		mb, err := procPeakRSSMB(p.cmd.Process.Pid)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		rss += mb
	}
	setMetric(r.Metrics, endToEnd, "setup_s", median(took))
	setMetric(r.Metrics, endToEnd, "rss_peak_mb", rss)
	series := t.ops
	if cfg.workload == wlSessionFeedback {
		// A session's first query is answered from a prewarmed vector or
		// the other client's result about as often as by a solve, so the
		// median of them all falls now on one side and now on the other
		// (7.6-14 ms in ten runs of one commit). The metric is what a
		// publish costs a reader whose term it invalidated: the median of
		// those that took a solve. The share is printed beside it.
		series[opQuery] = t.solved
		r.SolvedShare = ratio(float64(len(t.solved)), float64(len(t.ops[opQuery])))
	}
	q := estimateP50(series[opQuery], span.Seconds(), c.sliceSteal)
	for _, k := range gatedOps {
		name, e := opMetric(k), q
		if reports(cfg.workload, name) {
			e = estimateP50(series[k], span.Seconds(), c.sliceSteal)
			if e.Samples == 0 {
				r.Notes = append(r.Notes, fmt.Sprintf("no %s completed inside the timed phase", k))
			}
		} else {
			r.Filled[name] = true
		}
		setMetric(r.Metrics, endToEnd, name, e.P50*1e3)
		r.Samples[name] = e.Samples
	}
	r.SliceIQR = guardIQR(cfg.workload, series, span.Seconds(), c.sliceSteal)
	r.Steal = c.steal
	r.QuietSlices = quietSlices(c.sliceSteal)
	if d := durations(t.ops[opRequery]); len(d) > 0 {
		r.RequeryP50, r.Requeries = percentile(d, 50)*1e3, len(d)
	}
	r.Correct = r.Failed == 0 && len(r.Notes) == 0
	return r, nil
}

// guardIQR is loadgen.slice_iqr_ratio, what the noise guard reads: how far
// the slice medians of a phase lie apart, taken from the densest of the
// workload's gated series — the plain queries everywhere but on
// session_feedback, whose thirty-odd reformulations, explains or audits
// can be cut in halves where its twenty solved queries cannot.
func guardIQR(wl string, ops [numKinds][]sample, span float64, steal []float64) float64 {
	var dense estimate
	for _, k := range gatedOps {
		if e := estimateP50(ops[k], span, steal); workloadDefs[wl].issues(k) && e.Samples > dense.Samples {
			dense = e
		}
	}
	return dense.IQRRatio
}

// measure runs the closed-loop phase between two scrapes.
func (s *staged) measure(cfg config, span time.Duration) (*tally, counters, error) {
	gens := make([]*generator, cfg.clients)
	for lane := range gens {
		gens[lane] = newGenerator(cfg.workload, cfg.seed, lane, cfg.clients, s.v)
	}
	before, err := takeScrape(s.d)
	if err != nil {
		return nil, counters{}, err
	}
	steal := make(chan []float64, 1) // one send, read after the phase
	go func() { steal <- watchSteal(span) }()
	t := s.e.runClosed(gens, span)
	if err := s.d.checkAlive(); err != nil {
		return nil, counters{}, err
	}
	after, err := takeScrape(s.d)
	if err != nil {
		return nil, counters{}, err
	}
	c := deltaCounters(before, after)
	c.sliceSteal = <-steal
	return t, c, nil
}

// watchSteal reads /proc/stat at every slice boundary of a phase that
// starts now and reports each slice's steal share. A slice it could not
// read counts as undisturbed.
func watchSteal(span time.Duration) []float64 {
	steal := make([]float64, slices)
	start := time.Now()
	prev, prevErr := readHostCPU()
	for i := range steal {
		time.Sleep(time.Until(start.Add(span * time.Duration(i+1) / slices)))
		cur, err := readHostCPU()
		if prevErr == nil && err == nil {
			steal[i] = stealShare(prev, cur)
		}
		prev, prevErr = cur, err
	}
	return steal
}

func newResult(cfg config, t *tally) *result {
	r := &result{
		Attempted: t.attempted, Failed: t.failed,
		Metrics:  make(map[string]metric),
		Samples:  make(map[string]int),
		Filled:   make(map[string]bool),
		Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace,
	}
	for _, f := range t.failures {
		r.Notes = append(r.Notes, "failed: "+f)
	}
	return r
}

// oracle recomputes the sampled answers of the workloads that publish
// nothing; each mismatch is a failed operation.
func (s *staged) oracle(cfg config, t *tally, r *result) error {
	if cfg.workload == wlSessionFeedback || len(t.oracle) == 0 {
		return nil
	}
	mismatches, err := recompute(s.snapshot, t.oracle)
	if err != nil {
		return err
	}
	r.Failed += len(mismatches)
	for _, m := range mismatches {
		r.Notes = append(r.Notes, "oracle: "+m)
	}
	return nil
}

// printResult writes every metric by name with its unit, then the
// notes, then — as the last line — the driver's JSON object.
func printResult(r *result) error {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	var b bytes.Buffer
	fmt.Fprintf(&b, "# workload=%s seed=%d trace=%t attempted=%d failed=%d correct=%t\n",
		r.Workload, r.Seed, r.Trace, r.Attempted, r.Failed, r.Correct)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(&b, "%-34s %14.6g %s", n, m.Value, m.Unit)
		switch c, ok := r.Samples[n]; {
		case r.Filled[n]:
			fmt.Fprintf(&b, "  (= %s: %s issues no such request)", opMetric(opQuery), r.Workload)
		case ok:
			fmt.Fprintf(&b, "  (n=%d)", c)
		}
		b.WriteByte('\n')
	}
	if !r.Trace {
		if r.Requeries > 0 {
			fmt.Fprintf(&b, "~ %-32s %14.6g ms  (n=%d, ungated)\n", opMetric(opRequery), r.RequeryP50, r.Requeries)
			fmt.Fprintf(&b, "~ %-32s %14.6g ratio  (of the first queries; query_p50_ms is theirs)\n", "query_solved_share", r.SolvedShare)
		}
		fmt.Fprintf(&b, "~ %-32s %14.6g ratio\n", "slice_iqr_ratio", r.SliceIQR)
		fmt.Fprintf(&b, "~ %-32s %14.6g ratio  (%d of %d slices quiet)\n", "steal_share", r.Steal, r.QuietSlices, slices)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "! %s\n", n)
	}
	for n, m := range r.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", n, m.Value)
		}
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	b.Write(line)
	b.WriteByte('\n')
	_, err = os.Stdout.Write(b.Bytes())
	return err
}
