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
//	  200 body: 8-byte little-endian JSON length, a JSON Reply, an
//	            8-byte little-endian image length, then the serialised
//	            rewritten binary (exactly that many bytes; the reply
//	            carries Content-Length)
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
	"net/http"
	"strconv"

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

// frameHeader renders the bytes of a frame that precede the image: the
// JSON length, the JSON reply and the image length. The buffer has room
// for spare more bytes.
func frameHeader(reply *Reply, imageLen, spare int) ([]byte, error) {
	jr, err := json.Marshal(reply)
	if err != nil {
		return nil, err
	}
	hdr := make([]byte, 0, 8+len(jr)+8+spare)
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(jr)))
	hdr = append(hdr, jr...)
	return binary.LittleEndian.AppendUint64(hdr, uint64(imageLen)), nil
}

// ServeFrame writes one /rewrite response frame as an HTTP reply: it
// declares the frame's Content-Length, so the reply is never chunked,
// then writes the header and the image without copying the image.
func ServeFrame(w http.ResponseWriter, reply *Reply, image []byte) error {
	hdr, err := frameHeader(reply, len(image), 0)
	if err != nil {
		return err
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(hdr)+len(image)))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err = w.Write(image)
	return err
}

// EncodeFrame returns one frame in a single buffer of exactly its size.
func EncodeFrame(reply *Reply, image []byte) ([]byte, error) {
	hdr, err := frameHeader(reply, len(image), len(image))
	if err != nil {
		return nil, err
	}
	return append(hdr, image...), nil
}

// ReadFrame reads one /rewrite response frame, returning the reply and
// the image bytes. It decodes frames from peers and from the result
// cache's files alike, so both declared lengths are trusted only as far
// as the bytes present (see readSized): a hostile prefix costs at most
// about twice the input plus one read step. The image must be exactly
// as long as declared; a short or long one is refused, so a damaged
// file or a cut connection never yields a truncated rewrite.
func ReadFrame(r io.Reader) (*Reply, []byte, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, nil, fmt.Errorf("wire: truncated reply header: %w", err)
	}
	n := binary.LittleEndian.Uint64(hdr[:])
	if n > MaxReplyHeader {
		return nil, nil, fmt.Errorf("wire: reply header declares %d bytes", n)
	}
	jr, err := readSized(r, n)
	if err != nil {
		return nil, nil, fmt.Errorf("wire: truncated reply: %w", err)
	}
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, nil, fmt.Errorf("wire: truncated image length: %w", err)
	}
	n = binary.LittleEndian.Uint64(hdr[:])
	image, err := readSized(r, n)
	if err != nil {
		return nil, nil, fmt.Errorf("wire: image shorter than the %d bytes declared: %w", n, err)
	}
	if err := atEOF(r); err != nil {
		return nil, nil, fmt.Errorf("wire: image longer than the %d bytes declared: %w", n, err)
	}
	// The JSON is decoded last, once the lengths have held.
	var reply Reply
	if err := json.Unmarshal(jr, &reply); err != nil {
		return nil, nil, fmt.Errorf("wire: bad reply JSON: %w", err)
	}
	return &reply, image, nil
}

// readStep is how far a sized read's buffer may run ahead of the bytes
// received: the first buffer holds at most readStep bytes, and each
// growth at most doubles what has arrived. A sender that declares more
// than it sends therefore costs at most about twice the bytes it sent
// plus readStep, while an honest one of up to readStep bytes costs one
// allocation of exactly its size.
const readStep = 1 << 20

// readSized reads exactly n bytes from r. It returns
// io.ErrUnexpectedEOF if r ends first, or r's own error.
func readSized(r io.Reader, n uint64) ([]byte, error) {
	buf := make([]byte, 0, min(n, readStep))
	for {
		m, err := io.ReadFull(r, buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+m]
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return nil, err
		}
		if uint64(len(buf)) == n {
			return buf, nil
		}
		grown := make([]byte, len(buf), min(n, 2*uint64(len(buf))))
		copy(grown, buf)
		buf = grown
	}
}

// errTrailing reports bytes past a declared length.
var errTrailing = errors.New("trailing bytes")

// atEOF returns nil if r has no bytes left, errTrailing if it has, or
// r's own error.
func atEOF(r io.Reader) error {
	var b [1]byte
	switch _, err := io.ReadFull(r, b[:]); err {
	case io.EOF:
		return nil
	case nil:
		return errTrailing
	default:
		return err
	}
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
