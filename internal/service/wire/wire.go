// Package wire is the rewrite service's transport contract: the
// /rewrite option encoding, the reply frame, and nothing else. It is
// the one vocabulary every process in a deployment shares — icfg-serve
// nodes, the icfg-gateway front door, icfg-rewrite -remote, and the
// cluster's peer-to-peer endpoints — split out of the service so that
// transports (HTTP handlers, clients, proxies) can speak the format
// without dragging in scheduling or storage.
//
// The /rewrite frame:
//
//	POST /rewrite?mode=jt&where=block&payload=empty[&funcs=a,b][&verify=1][&gap=N][&no-evidence=1][&profile=1][&trace=1][&lane=batch]
//	  body: serialised input binary (.icfg bytes); with profile=1 the
//	        body is FrameProfile's framing — an 8-byte little-endian
//	        profile length, the serialised profile artifact, then the
//	        binary — so the profile participates in content-hash routing
//	        and cache identity without a second upload channel
//	  200 body: 8-byte little-endian JSON length, a JSON Reply, then
//	            the serialised rewritten binary
//	  errors: 400 bad request/options, 422 rewrite failure,
//	          429 queue full, 503 shutting down, 504 deadline exceeded
//
// The option keys are the codec in options.go; the query they render is
// the request identity the service's cache keys are built from. profile,
// trace and lane are transport keys (ParseRewriteQuery). Every door
// answers an unknown key, a repeated key or a malformed value with 400
// rather than serve the request with part of its meaning dropped.
package wire

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"icfgpatch/internal/core"
)

// Reply is the JSON half of a /rewrite response and the service's one
// record of a rewrite: built once when the rewrite finishes, it is the
// result-cache entry, the reply sent, and the batch item's outcome.
type Reply struct {
	// Stats describes the rewritten binary, Metrics the pipeline run
	// that produced it. On a result-cache hit both are the original
	// build's.
	Stats   core.Stats   `json:"stats"`
	Metrics core.Metrics `json:"pipeline"`
	// MetricsText is Metrics.Render, rendered once per record for
	// readers that still parse the text.
	MetricsText string `json:"metrics"`
	AnalysisHit bool   `json:"analysisHit"`
	ResultHit   bool   `json:"resultHit"`
	ElapsedUS   int64  `json:"elapsedUs"`
	// TraceText is the rendered span tree (trace=1 requests only).
	TraceText string `json:"trace,omitempty"`
}

// MaxReplyHeader bounds the JSON header a reader will accept, keeping a
// corrupt or hostile length prefix from driving a huge allocation.
const MaxReplyHeader = 16 << 20

// WriteFrame writes one /rewrite response frame: length-prefixed JSON
// reply, then the image bytes.
func WriteFrame(w io.Writer, reply *Reply, image []byte) error {
	jr, err := json.Marshal(reply)
	if err != nil {
		return err
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], uint64(len(jr)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.Write(jr); err != nil {
		return err
	}
	_, err = w.Write(image)
	return err
}

// ReadFrame reads one /rewrite response frame, returning the reply and
// the image bytes. It decodes frames from peers and from the result
// cache's files alike, so the header is read only as far as the bytes
// present: a hostile length prefix costs no allocation beyond the
// input.
func ReadFrame(r io.Reader) (*Reply, []byte, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, nil, fmt.Errorf("wire: truncated reply header: %w", err)
	}
	n := binary.LittleEndian.Uint64(hdr[:])
	if n > MaxReplyHeader {
		return nil, nil, fmt.Errorf("wire: reply header declares %d bytes", n)
	}
	jr, err := io.ReadAll(io.LimitReader(r, int64(n)))
	if err == nil && uint64(len(jr)) != n {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return nil, nil, fmt.Errorf("wire: truncated reply: %w", err)
	}
	var reply Reply
	if err := json.Unmarshal(jr, &reply); err != nil {
		return nil, nil, fmt.Errorf("wire: bad reply JSON: %w", err)
	}
	image, err := io.ReadAll(r)
	if err != nil {
		return nil, nil, fmt.Errorf("wire: truncated image: %w", err)
	}
	return &reply, image, nil
}

// FrameProfile builds a profile=1 request body: an 8-byte
// little-endian profile length, the serialised profile artifact, then
// the serialised binary. Framing the profile into the body — instead
// of a side channel — keeps one POST per rewrite and folds the profile
// into the cluster's content-hash routing for free.
func FrameProfile(profileBytes, image []byte) []byte {
	out := make([]byte, 8+len(profileBytes)+len(image))
	binary.LittleEndian.PutUint64(out[:8], uint64(len(profileBytes)))
	copy(out[8:], profileBytes)
	copy(out[8+len(profileBytes):], image)
	return out
}

// SplitProfile undoes FrameProfile, returning the profile artifact
// bytes and the binary bytes. The declared profile length is validated
// against the body before any slicing, so a hostile prefix cannot
// drive an out-of-range read.
func SplitProfile(body []byte) (profileBytes, binaryBytes []byte, err error) {
	if len(body) < 8 {
		return nil, nil, errors.New("wire: profiled body shorter than its length prefix")
	}
	n := binary.LittleEndian.Uint64(body[:8])
	if n > uint64(len(body)-8) {
		return nil, nil, fmt.Errorf("wire: profiled body declares %d profile bytes, only %d present", n, len(body)-8)
	}
	return body[8 : 8+n], body[8+n:], nil
}
