// Batch wire contract: the /batch manifest, job status, and event
// encodings, plus the SSE framing both ends of the event stream speak.
//
// The batch surface:
//
//	POST /batch                 body: JSON BatchManifest
//	                            202 body: JSON BatchAccepted
//	GET  /batch/{id}            200 body: JSON BatchStatus (poll fallback)
//	GET  /batch/{id}/events     200 text/event-stream of BatchEvents,
//	                            ?from=N (or Last-Event-ID) resumes after
//	                            sequence N; the stream ends after the
//	                            job-done / job-failed event
//	GET  /batch/{id}/output/{i} 200 body: item i's rewritten image bytes
//
// Every event is `id: <seq>` + `event: <type>` + one `data:` line of
// JSON; sequence numbers are per-job, contiguous from 1, so a client
// that reconnects with ?from=<last seen> misses nothing and duplicates
// nothing.
package wire

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"icfgpatch/internal/core"
)

// DefaultMaxBody caps request bodies at every service door (/rewrite on
// serve, node, and gateway, and the /batch manifest) unless configured
// otherwise. One oversized POST must not be able to OOM a node: the cap
// is enforced by http.MaxBytesReader, so the connection is also torn
// down instead of draining the remainder.
const DefaultMaxBody int64 = 256 << 20

// ReadBody reads r's body through http.MaxBytesReader with the given
// cap (0 selects DefaultMaxBody; negative disables the cap). A body
// that declares its Content-Length is read into one buffer sized from
// it, trusted only as far as the bytes received (see readSized), and
// must be exactly that long; a chunked body is read to EOF. On failure
// it writes the HTTP error — 413 when the cap was exceeded, 400
// otherwise — and returns ok=false.
func ReadBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, bool) {
	if limit == 0 {
		limit = DefaultMaxBody
	}
	body := r.Body
	if limit > 0 {
		body = http.MaxBytesReader(w, r.Body, limit)
	}
	var raw []byte
	var err error
	if n := r.ContentLength; n > 0 {
		if limit > 0 && n > limit {
			// One byte past the cap is enough for MaxBytesReader to refuse.
			n = limit + 1
		}
		if raw, err = readSized(body, uint64(n)); err == nil {
			if err = atEOF(body); err != nil {
				err = fmt.Errorf("request body longer than its Content-Length: %w", err)
			}
		}
	} else {
		raw, err = io.ReadAll(body)
	}
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			http.Error(w, fmt.Sprintf("request body exceeds %d-byte cap", mbe.Limit),
				http.StatusRequestEntityTooLarge)
		} else {
			http.Error(w, err.Error(), http.StatusBadRequest)
		}
		return nil, false
	}
	return raw, true
}

// MaxBatchItems bounds a single manifest. A fleet bigger than this
// submits as several jobs.
const MaxBatchItems = 4096

// BatchItem is one manifest entry: a serialised binary (base64 in
// JSON) plus its rewrite options, encoded as a /rewrite query string
// ("mode=jt&where=block&payload=empty") so the batch surface reuses
// the exact option vocabulary — and validation — of single rewrites.
type BatchItem struct {
	// Name labels the item in status reports and events; defaults to
	// its index.
	Name string `json:"name,omitempty"`
	// Opts is the item's /rewrite query string; "" selects the
	// defaults (jt, block entry, empty payload).
	Opts string `json:"opts,omitempty"`
	// Binary is the serialised input binary (.icfg bytes).
	Binary []byte `json:"binary"`
}

// BatchManifest is the POST /batch body.
type BatchManifest struct {
	Items []BatchItem `json:"items"`
}

// ParseItemOptions parses one item's Opts query string into
// core.Options with ParseOptions; transport keys are not item options.
func ParseItemOptions(opts string) (core.Options, error) {
	v, err := url.ParseQuery(opts)
	if err != nil {
		return core.Options{}, fmt.Errorf("wire: bad item opts %q: %v", opts, err)
	}
	return ParseOptions(v)
}

// Validate checks the manifest's shape and option strings, filling
// default names. It does not decode the binaries — the service does
// that once, where the result can be reused.
func (m *BatchManifest) Validate() error {
	if len(m.Items) == 0 {
		return errors.New("wire: batch manifest has no items")
	}
	if len(m.Items) > MaxBatchItems {
		return fmt.Errorf("wire: batch manifest has %d items, cap is %d", len(m.Items), MaxBatchItems)
	}
	for i := range m.Items {
		it := &m.Items[i]
		if len(it.Binary) == 0 {
			return fmt.Errorf("wire: batch item %d (%s) carries no binary", i, it.Name)
		}
		if _, err := ParseItemOptions(it.Opts); err != nil {
			return fmt.Errorf("wire: batch item %d (%s): %w", i, it.Name, err)
		}
		if it.Name == "" {
			it.Name = strconv.Itoa(i)
		}
	}
	return nil
}

// BatchAccepted is the POST /batch response.
type BatchAccepted struct {
	ID    string `json:"id"`
	Items int    `json:"items"`
}

// Batch job and item states.
const (
	BatchPending = "pending"
	BatchRunning = "running"
	BatchDone    = "done"
	BatchFailed  = "failed"
)

// BatchItemStatus is one item's slice of a status snapshot.
type BatchItemStatus struct {
	Name  string `json:"name"`
	State string `json:"state"`
	// Path is the cache path the item's rewrite took (cold, delta,
	// warm-analysis, result-cache) once done.
	Path      string `json:"path,omitempty"`
	Err       string `json:"err,omitempty"`
	ElapsedUS int64  `json:"elapsedUs,omitempty"`
	// Bytes is the rewritten image's size once done.
	Bytes int `json:"bytes,omitempty"`
}

// BatchStatus is the GET /batch/{id} body: the polling fallback for
// clients that cannot hold an SSE stream.
type BatchStatus struct {
	ID    string            `json:"id"`
	State string            `json:"state"`
	Done  int               `json:"done"`
	Total int               `json:"total"`
	Items []BatchItemStatus `json:"items"`
	// Resumed reports that this job was recovered from persisted state
	// by a restarted server.
	Resumed bool `json:"resumed,omitempty"`
}

// Batch event types, in the order a job emits them.
const (
	EventJobStart  = "job-start"
	EventItemStart = "item-start"
	// EventItemStage carries one pipeline stage's wall time for a
	// finished item — the per-stage span feed.
	EventItemStage  = "item-stage"
	EventItemDone   = "item-done"
	EventItemFailed = "item-failed"
	EventJobDone    = "job-done"
	EventJobFailed  = "job-failed"
)

// BatchEvent is one event-stream entry.
type BatchEvent struct {
	// Seq is the per-job sequence number, contiguous from 1.
	Seq int64 `json:"seq"`
	// Type is one of the Event* constants.
	Type string `json:"type"`
	// Item / Name identify the item for item-* events; Item is -1 for
	// job-level events.
	Item int    `json:"item"`
	Name string `json:"name,omitempty"`
	// Stage / WallUS carry one pipeline stage's timing (item-stage).
	Stage  string `json:"stage,omitempty"`
	WallUS int64  `json:"wallUs,omitempty"`
	// Path is the item's cache path (item-done).
	Path string `json:"path,omitempty"`
	Err  string `json:"err,omitempty"`
	// Done/Total are the job's progress counters, stamped on item-done,
	// item-failed, and job-level events.
	Done  int `json:"done,omitempty"`
	Total int `json:"total,omitempty"`
}

// MaxSSEEvent bounds one SSE line and one event's accumulated data, so
// a stream that never sends the blank line ending an event cannot grow
// the reader's memory without bound.
const MaxSSEEvent = 4 << 20

// WriteSSE writes one event in the text/event-stream framing. A type
// with a line break is refused: written as the event: line, it would
// split the frame and let the rest of the type inject fields.
func WriteSSE(w io.Writer, ev BatchEvent) error {
	if strings.ContainsAny(ev.Type, "\r\n") {
		return fmt.Errorf("wire: SSE event type %q contains a line break", ev.Type)
	}
	data, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, data)
	return err
}

// ReadSSE consumes a text/event-stream of BatchEvents, calling fn for
// each. It returns nil when the stream ends cleanly (EOF after a
// job-done/job-failed event or fn returning false), the read error
// otherwise. Comment lines and unknown fields are skipped per the SSE
// grammar. A line or an event's data longer than MaxSSEEvent is an
// error.
func ReadSSE(r io.Reader, fn func(BatchEvent) bool) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), MaxSSEEvent)
	var data strings.Builder
	flush := func() (bool, error) {
		if data.Len() == 0 {
			return true, nil
		}
		var ev BatchEvent
		err := json.Unmarshal([]byte(data.String()), &ev)
		data.Reset()
		if err != nil {
			return false, fmt.Errorf("wire: bad SSE event: %w", err)
		}
		return fn(ev), nil
	}
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			cont, err := flush()
			if err != nil {
				return err
			}
			if !cont {
				return nil
			}
		case strings.HasPrefix(line, "data:"):
			d := strings.TrimPrefix(strings.TrimPrefix(line, "data:"), " ")
			if data.Len()+len(d) > MaxSSEEvent {
				return fmt.Errorf("wire: SSE event data over %d bytes", MaxSSEEvent)
			}
			data.WriteString(d)
		default:
			// id:/event:/comment lines — the JSON body carries seq and
			// type, so the framing copies are informational.
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	_, err := flush()
	return err
}
