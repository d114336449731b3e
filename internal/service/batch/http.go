// Batch HTTP surface, layered over the service handler:
//
//	POST /batch                   — submit a manifest, 202 + job ID
//	GET  /batch/{id}              — JSON status snapshot (polling fallback)
//	GET  /batch/{id}/events       — SSE progress stream (?from=N resumes)
//	GET  /batch/{id}/output/{idx} — one item's rewritten image
//
// The event stream replays from the job's in-memory log, so a client
// that reconnects with its last seen sequence number (Last-Event-ID or
// ?from) continues loss-free and duplicate-free.
package batch

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"icfgpatch/internal/service/wire"
)

// Handler wraps base with the /batch routes. Everything else falls
// through to base, so callers install the batch surface with
// srv.Handler() (or the cluster node's handler) as the base.
func (m *Manager) Handler(base http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /batch", m.handleSubmit)
	mux.HandleFunc("POST /batch/{$}", m.handleSubmit)
	mux.HandleFunc("GET /batch/{id}", m.handleStatus)
	mux.HandleFunc("GET /batch/{id}/events", m.handleEvents)
	mux.HandleFunc("GET /batch/{id}/output/{idx}", m.handleOutput)
	mux.Handle("/", base)
	return mux
}

func (m *Manager) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// The manifest door gets the server's /rewrite cap: over-cap POSTs
	// draw 413 before the body is read into memory.
	body, ok := wire.ReadBody(w, r, m.srv.MaxRequestBytes())
	if !ok {
		return
	}
	var man wire.BatchManifest
	if err := json.Unmarshal(body, &man); err != nil {
		http.Error(w, fmt.Sprintf("batch: bad manifest: %v", err), http.StatusBadRequest)
		return
	}
	job, err := m.Submit(man)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(wire.BatchAccepted{ID: job.ID, Items: job.Total})
}

func (m *Manager) handleStatus(w http.ResponseWriter, r *http.Request) {
	job, ok := m.Get(r.PathValue("id"))
	if !ok {
		http.Error(w, "batch: no such job", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(job.Status())
}

// handleEvents streams the job's progress as SSE. `from` (query param,
// or the standard Last-Event-ID header on reconnect) is the client's
// last seen sequence number; the stream starts at from+1.
func (m *Manager) handleEvents(w http.ResponseWriter, r *http.Request) {
	job, ok := m.Get(r.PathValue("id"))
	if !ok {
		http.Error(w, "batch: no such job", http.StatusNotFound)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "batch: streaming unsupported", http.StatusInternalServerError)
		return
	}
	from := int64(0)
	if s := r.URL.Query().Get("from"); s != "" {
		from, _ = strconv.ParseInt(s, 10, 64)
	} else if s := r.Header.Get("Last-Event-ID"); s != "" {
		from, _ = strconv.ParseInt(s, 10, 64)
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no") // proxies must not buffer the stream
	w.WriteHeader(http.StatusOK)

	// Each (re)subscription replays the log past `from`, then follows
	// live. A subscriber the emitter outran has its channel closed with
	// events missing from it — looping back to Subscribe with the last
	// written sequence closes the gap from the log.
	for {
		backlog, live, cancel := m.Subscribe(job, from)
		for _, ev := range backlog {
			if err := wire.WriteSSE(w, ev); err != nil {
				cancel()
				return
			}
			from = ev.Seq
		}
		flusher.Flush()
		if live == nil {
			cancel()
			return // job already finished; the backlog was the whole story
		}
		overflowed := false
		for {
			var (
				ev wire.BatchEvent
				ok bool
			)
			select {
			case ev, ok = <-live:
			case <-r.Context().Done():
				cancel()
				return
			}
			if !ok {
				overflowed = true
				break
			}
			if ev.Seq <= from {
				continue // replayed above before the subscription landed
			}
			if err := wire.WriteSSE(w, ev); err != nil {
				cancel()
				return
			}
			flusher.Flush()
			from = ev.Seq
			if ev.Type == wire.EventJobDone || ev.Type == wire.EventJobFailed {
				cancel()
				return
			}
		}
		cancel()
		if !overflowed {
			return
		}
	}
}

func (m *Manager) handleOutput(w http.ResponseWriter, r *http.Request) {
	job, ok := m.Get(r.PathValue("id"))
	if !ok {
		http.Error(w, "batch: no such job", http.StatusNotFound)
		return
	}
	idx, err := strconv.Atoi(r.PathValue("idx"))
	if err != nil {
		http.Error(w, "batch: bad item index", http.StatusBadRequest)
		return
	}
	image, err := job.Output(idx)
	if err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(image)
}
