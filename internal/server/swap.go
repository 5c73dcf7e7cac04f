// swap.go implements POST /v1/corpus/swap: zero-downtime replacement
// of the served corpus from a binary snapshot file, published through
// the engine's generational CAS (core.Engine.SwapCorpus). The endpoint
// is v1-only, opt-in (WithSwapDir), and restricted to snapshot files
// inside the configured directory — the request names a file, never a
// path.
//
// Swap lifecycle, as observed by concurrent requests:
//
//   - in-flight queries finish on the generation they pinned and render
//     against that generation's graph;
//   - cache entries are keyed by (generation, rates identity), so no
//     cached answer ever crosses the swap;
//   - the swap bumps the rates version, so reformulations holding a
//     pre-swap version token lose their optimistic race with a 409;
//   - the first solve of each term on the new generation starts from its
//     global PageRank: no vector sized for the old graph is donated.
package server

import (
	"errors"
	"net/http"
	"path/filepath"
	"strconv"
	"time"

	"authorityflow/internal/core"
	"authorityflow/internal/storage"
)

// WithSwapDir enables POST /v1/corpus/swap, restricted to binary
// snapshot files inside dir. Without this option the endpoint answers
// 403: swapping loads operator-supplied files into the process, so it
// must be an explicit deployment decision.
func WithSwapDir(dir string) Option {
	return func(o *serverOptions) { o.swapDir = dir }
}

// maxSwapBody bounds the request body (the body names a file; it is
// never large).
const maxSwapBody = 64 << 10

// swapEndpoint is /v1/corpus/swap.
var swapEndpoint = endpoint{pattern: "/v1/corpus/swap", parse: (*Server).parseSwap, run: (*Server).runSwap}

var errSwapDisabled = &APIError{Status: http.StatusForbidden, Code: CodeInvalidArgument,
	Message: "corpus swapping is disabled: the server was started without a swap directory"}

// parseSwap reads the request: POST only, on a server with a swap
// directory, naming a file inside it.
func (s *Server) parseSwap(rq *request, r *http.Request) (string, error) {
	if rq.method != http.MethodPost {
		return "", errPostRequired
	}
	if s.swapDir == "" {
		return "", errSwapDisabled
	}
	if err := readJSON(r, maxSwapBody, "body too large", &rq.swap); err != nil {
		return "", err
	}
	if rq.swap.Snapshot == "" {
		return "", badRequest("snapshot file name required")
	}
	// Containment: the request names a file (or subdirectory path)
	// INSIDE the swap directory. filepath.IsLocal rejects absolute
	// paths, "..", and anything else that could escape.
	if !filepath.IsLocal(rq.swap.Snapshot) {
		return "", badRequest("snapshot must name a file inside the swap directory")
	}
	return "snapshot=" + rq.swap.Snapshot + " ifGeneration=" + strconv.FormatUint(rq.swap.IfGeneration, 10), nil
}

// runSwap loads the snapshot, builds its corpus and publishes it through
// the generational CAS. A zero ifGeneration swaps whatever generation is
// current when the corpus is ready, not the one the request pinned. The
// response and trace report the state the swap published.
func (s *Server) runSwap(rq *request) (reply, error) {
	t0 := time.Now()
	ds, ix, err := storage.ReadSnapshotFile(filepath.Join(s.swapDir, rq.swap.Snapshot))
	if err != nil {
		return reply{}, badRequest("loading snapshot: " + err.Error())
	}
	rq.tr.Eventf("load", "snapshot=%s nodes=%d edges=%d dur=%s",
		rq.swap.Snapshot, ds.Graph.NumNodes(), ds.Graph.NumEdges(), time.Since(t0))

	t1 := time.Now()
	cfg := s.cfg
	cfg.Name = ds.Name
	corpus, err := core.NewCorpusWithIndex(ds.Graph, ix, cfg)
	if err != nil {
		return reply{}, errors.New("building corpus: " + err.Error())
	}
	rq.tr.Eventf("build", "dur=%s", time.Since(t1))

	pin, err := s.eng.SwapCorpus(corpus, ds.Rates, rq.swap.IfGeneration)
	if errors.Is(err, core.ErrGenerationConflict) {
		return reply{}, conflict("corpus generation changed concurrently; re-read and retry", 0, pin.Generation())
	}
	if err != nil {
		return reply{}, badRequest("swap rejected: " + err.Error())
	}
	s.obs.swapsTotal.Inc()
	rq.tr.Eventf("swap", "generation=%d->%d version=%d", pin.Generation()-1, pin.Generation(), pin.Version())
	return reply{what: "nodes", n: ds.Graph.NumNodes(), json: CorpusSwapResponse{
		Generation:   pin.Generation(),
		RatesVersion: pin.Version(),
		Name:         ds.Name,
		Nodes:        ds.Graph.NumNodes(),
		Edges:        ds.Graph.NumEdges(),
	}}, nil
}
