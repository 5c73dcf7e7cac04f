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
	"time"

	"authorityflow/internal/core"
	"authorityflow/internal/obs"
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

func (s *Server) handleCorpusSwap(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, r, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if s.swapDir == "" {
		writeAPIError(w, r, http.StatusForbidden, CodeInvalidArgument,
			"corpus swapping is disabled: the server was started without a swap directory")
		return
	}
	var req CorpusSwapRequest
	if err := readJSON(r, maxSwapBody, "body too large", &req); err != nil {
		s.fail(w, r, "", err)
		return
	}
	if req.Snapshot == "" {
		writeError(w, r, http.StatusBadRequest, "snapshot file name required")
		return
	}
	// Containment: the request names a file (or subdirectory path)
	// INSIDE the swap directory. filepath.IsLocal rejects absolute
	// paths, "..", and anything else that could escape.
	if !filepath.IsLocal(req.Snapshot) {
		writeError(w, r, http.StatusBadRequest,
			"snapshot must name a file inside the swap directory")
		return
	}
	tr := obs.TraceFrom(r.Context())

	t0 := time.Now()
	ds, ix, err := storage.ReadSnapshotFile(filepath.Join(s.swapDir, req.Snapshot))
	if err != nil {
		writeError(w, r, http.StatusBadRequest, "loading snapshot: "+err.Error())
		return
	}
	tr.Eventf("load", "snapshot=%s nodes=%d edges=%d dur=%s",
		req.Snapshot, ds.Graph.NumNodes(), ds.Graph.NumEdges(), time.Since(t0))

	t1 := time.Now()
	corpus, err := core.NewCorpusWithIndex(ds.Graph, ix, s.cfg)
	if err != nil {
		writeAPIError(w, r, http.StatusInternalServerError, CodeInternal,
			"building corpus: "+err.Error())
		return
	}
	tr.Eventf("build", "dur=%s", time.Since(t1))

	ifGen := req.IfGeneration
	if ifGen == 0 {
		ifGen = s.eng.Generation()
	}
	gen, err := s.eng.SwapCorpus(corpus, ds.Rates, ifGen)
	if errors.Is(err, core.ErrGenerationConflict) {
		writeJSON(w, http.StatusConflict, SwapConflictEnvelope{
			Error: ErrorInfo{
				Code:      CodeVersionConflict,
				Message:   "corpus generation changed concurrently; re-read and retry",
				RequestID: obs.RequestIDFrom(r.Context()),
			},
			Generation: gen,
		})
		return
	}
	if err != nil {
		writeError(w, r, http.StatusBadRequest, "swap rejected: "+err.Error())
		return
	}
	s.ds.Store(ds)
	tr.Eventf("swap", "generation=%d->%d version=%d", ifGen, gen, s.eng.RatesVersion())
	writeJSON(w, http.StatusOK, CorpusSwapResponse{
		Generation:   gen,
		RatesVersion: s.eng.RatesVersion(),
		Name:         ds.Name,
		Nodes:        ds.Graph.NumNodes(),
		Edges:        ds.Graph.NumEdges(),
	})
}
