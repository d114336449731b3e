package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"encoding/json"
	"flag"
	"io"
	"net/url"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"icfgpatch/internal/arch"
	"icfgpatch/internal/core"
	"icfgpatch/internal/instrument"
	"icfgpatch/internal/profile"
)

// sampleReply is a record with every kind of field set: the skipped
// list, the evidence flags, stage laps and trampolines by class.
func sampleReply() *Reply {
	m := core.Metrics{
		Stages:      []core.StageMetric{{Name: core.StageCFG, Wall: time.Millisecond}, {Name: core.StagePlan, Wall: 3 * time.Microsecond}},
		CFLBlocks:   9,
		Trampolines: map[arch.TrampolineClass]int{arch.TrampShort: 6, arch.TrampTrap: 1},
		FuncsReused: 3, FuncsRecomputed: 1, PatchFuncsReencoded: 4,
	}
	return &Reply{
		Stats: core.Stats{TotalFuncs: 5, InstrumentedFuncs: 4, SkippedFuncs: []string{"bad"}, RAMapEntries: 7,
			OrigLoadedSize: 4096, NewLoadedSize: 8192, MarkSites: 2, EvidenceTrusted: true},
		Metrics: m, MetricsText: m.Render(), AnalysisHit: true, ElapsedUS: 1234,
	}
}

// TestFrameRoundTrip: EncodeFrame's output parses back to the same
// whole record and image through ReadFrame.
func TestFrameRoundTrip(t *testing.T) {
	in := sampleReply()
	image := []byte("not really a binary, but the frame does not care")
	frame, err := EncodeFrame(in, image)
	if err != nil {
		t.Fatal(err)
	}
	out, gotImage, err := ReadFrame(bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("reply round trip: got %+v, want %+v", out, in)
	}
	if !bytes.Equal(gotImage, image) {
		t.Fatalf("image round trip: got %q", gotImage)
	}
}

// lenPrefixed is body behind an 8-byte little-endian length that
// declares declared bytes.
func lenPrefixed(declared uint64, body string) []byte {
	return append(binary.LittleEndian.AppendUint64(nil, declared), body...)
}

// imageFrame is a frame with an empty reply whose image declares n
// bytes and carries image.
func imageFrame(n uint64, image string) []byte {
	b := binary.LittleEndian.AppendUint64(lenPrefixed(2, "{}"), n)
	return append(b, image...)
}

// unsizedFrame is a frame as written before frames declared their image
// length: the JSON header, then the image up to the end.
func unsizedFrame(t testing.TB) []byte {
	jr, err := json.Marshal(sampleReply())
	if err != nil {
		t.Fatal(err)
	}
	return append(lenPrefixed(uint64(len(jr)), string(jr)), "ICFGBIN1 the image"...)
}

// TestReadFrameRejects pins the reader's defence: truncated streams,
// images longer or shorter than declared, frames without an image
// length and hostile length prefixes error out instead of allocating or
// hanging (FuzzReadFrame bounds the allocation of the same frames).
func TestReadFrameRejects(t *testing.T) {
	if _, _, err := ReadFrame(bytes.NewReader([]byte{1, 2, 3})); err == nil || !strings.Contains(err.Error(), "truncated reply header") {
		t.Fatalf("short header: err = %v", err)
	}
	var hostile [8]byte
	binary.LittleEndian.PutUint64(hostile[:], MaxReplyHeader+1)
	if _, _, err := ReadFrame(bytes.NewReader(hostile[:])); err == nil || !strings.Contains(err.Error(), "declares") {
		t.Fatalf("hostile prefix: err = %v", err)
	}
	var short [8]byte
	binary.LittleEndian.PutUint64(short[:], 100)
	if _, _, err := ReadFrame(bytes.NewReader(append(short[:], []byte("{}")...))); err == nil || !strings.Contains(err.Error(), "truncated reply") {
		t.Fatalf("short body: err = %v", err)
	}
	for name, data := range map[string][]byte{
		"long image":        imageFrame(5, "image!"),
		"short image":       imageFrame(6, "image"),
		"huge image length": imageFrame(1<<62, "0123456789"),
		"unsized frame":     unsizedFrame(t),
	} {
		if _, image, err := ReadFrame(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: accepted, image %q", name, image)
		}
	}
}

// TestParseMode covers the mode vocabulary including the default.
func TestParseMode(t *testing.T) {
	cases := map[string]core.Mode{"dir": core.ModeDir, "jt": core.ModeJT, "": core.ModeJT,
		"func-ptr": core.ModeFuncPtr, "funcptr": core.ModeFuncPtr}
	for in, want := range cases {
		got, err := ParseMode(in)
		if err != nil || got != want {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseMode("nonsense"); err == nil {
		t.Error("ParseMode accepted nonsense")
	}
}

// TestEncodeOptionsRejectsNonWire: in-process-only options must not
// silently drop on the floor.
func TestEncodeOptionsRejectsNonWire(t *testing.T) {
	block := instrument.Request{Where: instrument.BlockEntry}
	cases := map[string]core.Options{
		"unknown instrumentation point": {Request: instrument.Request{Where: instrument.Point(99)}},
		"baseline variant":              {Request: block, Variant: core.Variant{NoTrampolines: true}},
		"NoRAMap":                       {Request: block, NoRAMap: true},
		"instrumentation at addresses":  {Request: instrument.Request{Where: instrument.AtAddrs, Addrs: []uint64{0x1000}}},
		"Request.Addrs":                 {Request: instrument.Request{Where: instrument.BlockEntry, Addrs: []uint64{0x1000}}},
		"empty function name":           {Request: instrument.Request{Funcs: []string{"f", ""}}},
		"comma in function name":        {Request: instrument.Request{Funcs: []string{"a,b"}}},
		"empty function subset":         {Request: instrument.Request{Funcs: []string{}}},
		"unknown mode":                  {Mode: core.Mode(9)},
		"profile":                       {Profile: &profile.Profile{}},
	}
	for name, o := range cases {
		if v, err := EncodeOptions(o); err == nil {
			t.Errorf("EncodeOptions accepted %s as %q", name, v.Encode())
		}
	}
}

// TestOptionsWireRoundTrip checks EncodeOptions/ParseOptions are
// inverses over the wire-expressible surface.
func TestOptionsWireRoundTrip(t *testing.T) {
	cases := []core.Options{
		{Mode: core.ModeDir},
		{Mode: core.ModeJT, Request: instrument.Request{Where: instrument.FuncEntry, Payload: instrument.PayloadCounter, Funcs: []string{"f1", "f2"}}, Verify: true, InstrGap: 1 << 20},
		{Mode: core.ModeFuncPtr, NoEvidence: true},
	}
	for i, o := range cases {
		v, err := EncodeOptions(o)
		if err != nil {
			t.Fatalf("case %d encode: %v", i, err)
		}
		got, err := ParseOptions(v)
		if err != nil {
			t.Fatalf("case %d parse: %v", i, err)
		}
		if !reflect.DeepEqual(got, o) {
			t.Fatalf("case %d: round trip %+v -> %q -> %+v", i, o, v.Encode(), got)
		}
	}
}

// TestParseRewriteQuery: the door splits off exactly its transport
// keys, each at most once, and parses the rest as options.
func TestParseRewriteQuery(t *testing.T) {
	q, _ := url.ParseQuery("mode=dir&profile=1&trace=1&lane=batch&no-evidence=1")
	o, transport, err := ParseRewriteQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if want := (core.Options{Mode: core.ModeDir, NoEvidence: true}); !reflect.DeepEqual(o, want) {
		t.Fatalf("options %+v, want %+v", o, want)
	}
	if want := map[string]string{"profile": "1", "trace": "1", "lane": "batch"}; !reflect.DeepEqual(transport, want) {
		t.Fatalf("transport keys %v, want %v", transport, want)
	}
	for _, bad := range []string{"profile=1&profile=1", "hash=abc", "trace=1&verfy=1"} {
		q, _ := url.ParseQuery(bad)
		if _, _, err := ParseRewriteQuery(q); err == nil {
			t.Errorf("ParseRewriteQuery accepted %q", bad)
		}
	}
}

// TestRegisterFlags checks that the codec's flags parse like its query
// keys: unset flags take ParseOptions' defaults, set ones their key's
// value, and a malformed value is refused.
func TestRegisterFlags(t *testing.T) {
	for args, query := range map[string]string{
		"": "",
		"-mode func-ptr -where func -payload counter -funcs a,b -verify -gap 4096 -no-evidence": "mode=func-ptr&where=func&payload=counter&funcs=a,b&verify=1&gap=4096&no-evidence=1",
		"-mode funcptr -verify=false -gap 0":                                                    "mode=func-ptr",
	} {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		parse := RegisterFlags(fs)
		if err := fs.Parse(strings.Fields(args)); err != nil {
			t.Fatal(err)
		}
		got, err := parse()
		if err != nil {
			t.Fatalf("%q: %v", args, err)
		}
		v, _ := url.ParseQuery(query)
		if want, _ := ParseOptions(v); !reflect.DeepEqual(got, want) {
			t.Errorf("%q parsed to %+v, want %+v (%q)", args, got, want, query)
		}
	}
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	parse := RegisterFlags(fs)
	if err := fs.Parse([]string{"-where", "loop"}); err != nil {
		t.Fatal(err)
	}
	if _, err := parse(); err == nil {
		t.Error("-where loop was accepted")
	}
}

// FuzzOptionsCodec pins the codec's two properties. Any query that
// parses encodes back to a query that parses to equal options and
// re-encodes byte-identically; and a parsed query stays refused once
// it gains an unknown key, repeats a key or carries a malformed value.
func FuzzOptionsCodec(f *testing.F) {
	for _, q := range []string{
		"",
		"mode=dir",
		"mode=func-ptr&where=func&payload=counter&funcs=a,b&verify=1&gap=4096&no-evidence=1",
		"mode=funcptr&verify=true&gap=0&no-evidence=0",
		"funcs=%E2%9C%93,x%20y",
		"verfy=1",
		"bogus=1",
		"verify=yes",
		"mode=jt&mode=dir",
		"funcs=a,,b",
		"gap=-1",
		"where=",
	} {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, q string) {
		v, err := url.ParseQuery(q)
		if err != nil {
			return
		}
		o, err := ParseOptions(v)
		if err != nil {
			return
		}
		enc, err := EncodeOptions(o)
		if err != nil {
			t.Fatalf("%q parsed to %+v, which does not encode: %v", q, o, err)
		}
		back, err := ParseOptions(enc)
		if err != nil || !reflect.DeepEqual(back, o) {
			t.Fatalf("%q -> %+v -> %q -> %+v, %v", q, o, enc.Encode(), back, err)
		}
		if again, _ := EncodeOptions(back); again.Encode() != enc.Encode() {
			t.Fatalf("re-encoding %q gave %q", enc.Encode(), again.Encode())
		}
		refuse := func(what string, mutate func(url.Values)) {
			w := url.Values{}
			for k, vs := range v {
				w[k] = append([]string(nil), vs...)
			}
			mutate(w)
			if _, err := ParseOptions(w); err == nil {
				t.Fatalf("%q with %s parsed", q, what)
			}
		}
		refuse("an unknown key", func(w url.Values) { w.Set("bogus", "1") })
		for k := range v {
			refuse("a repeated "+k, func(w url.Values) { w.Add(k, w.Get(k)) })
			refuse("a malformed "+k, func(w url.Values) { w.Set(k, ",") })
		}
	})
}

// FuzzReadFrame: ReadFrame decodes frames from peers and from the
// result cache's files, so no input may panic it, a length prefix may
// not make it allocate more than one read step beyond a small multiple
// of the bytes actually present, an image must be exactly as long as
// declared, and a frame it accepts must re-encode to an equal reply and
// image.
func FuzzReadFrame(f *testing.F) {
	valid, err := EncodeFrame(sampleReply(), []byte("image"))
	if err != nil {
		f.Fatal(err)
	}
	frame := lenPrefixed
	// A result-cache file written before the cache stored frames: the
	// gob encoding of the old {Image, Stats, Metrics} entry.
	var old bytes.Buffer
	if err := gob.NewEncoder(&old).Encode(struct {
		Image   []byte
		Stats   core.Stats
		Metrics core.Metrics
	}{Image: []byte("image"), Stats: core.Stats{TotalFuncs: 3}}); err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{
		valid,
		valid[:5],                       // truncated header
		frame(MaxReplyHeader+1, "{}"),   // length above the bound
		frame(MaxReplyHeader, "{}"),     // length at the bound, body absent
		frame(2, "{]"),                  // bad JSON
		frame(2, "{}"),                  // empty reply, no image length
		frame(100, "{}"),                // body shorter than declared
		imageFrame(0, ""),               // empty image
		imageFrame(5, "image!"),         // image longer than declared
		imageFrame(6, "image"),          // image shorter than declared
		imageFrame(1<<62, "0123456789"), // a huge length, 10 bytes present
		unsizedFrame(f),
		old.Bytes(),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		reply, image, err := ReadFrame(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20+64*uint64(len(data)) {
			t.Fatalf("%d input bytes allocated %d bytes", len(data), grew)
		}
		if err != nil {
			return
		}
		buf, err := EncodeFrame(reply, image)
		if err != nil {
			t.Fatalf("accepted reply does not encode: %v", err)
		}
		back, img2, err := ReadFrame(bytes.NewReader(buf))
		if err != nil {
			t.Fatalf("re-encoded frame refused: %v", err)
		}
		if !reflect.DeepEqual(back, reply) || !bytes.Equal(img2, image) {
			t.Fatalf("re-encoding changed the frame: %+v -> %+v", reply, back)
		}
	})
}

// FuzzSplitProfile: SplitProfile reads the profile=1 body a client
// sent, so no input may panic it, and a body it accepts must re-frame
// to the same bytes — the split loses nothing and invents nothing.
func FuzzSplitProfile(f *testing.F) {
	prof := (&profile.Profile{BinaryHash: "0123abcd", Arch: arch.X64, TotalCount: 7, Funcs: []profile.FuncHeat{{Name: "main", Count: 7}}}).Encode()
	prefix := func(declared uint64, body string) []byte {
		return append(binary.LittleEndian.AppendUint64(nil, declared), body...)
	}
	for _, seed := range [][]byte{
		FrameProfile(prof, []byte("image")),
		FrameProfile(nil, []byte("image")),
		FrameProfile(prof, nil),
		nil,
		[]byte("short"),                // shorter than the prefix
		prefix(6, "abc"),               // declares more than present
		prefix(3, "abc"),               // profile only
		prefix(^uint64(0), "abc"),      // a length that overflows int
		prefix(^uint64(0)-7, "abcdef"), // wraps to small on 8+n
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		pb, bb, err := SplitProfile(body)
		if err != nil {
			return
		}
		if back := FrameProfile(pb, bb); !bytes.Equal(back, body) {
			t.Fatalf("split %d+%d bytes re-frame to %x, want %x", len(pb), len(bb), back, body)
		}
	})
}

// FuzzBatchManifest: a /batch body is decoded and validated at the
// door, so no input may panic either step, and a manifest that
// validates must re-marshal to one that validates to the same items.
func FuzzBatchManifest(f *testing.F) {
	for _, seed := range []string{
		`{"items":[{"binary":"aWNmZw=="}]}`,
		`{"items":[{"name":"a","opts":"mode=dir&where=func","binary":"aWNmZw=="},{"opts":"funcs=f,g&verify=1","binary":"AA=="}]}`,
		`{"items":[]}`,
		`{"items":[{"binary":""}]}`,
		`{"items":[{"opts":"verfy=1","binary":"AA=="}]}`,
		`{"items":[{"opts":"%zz","binary":"AA=="}]}`,
		`{"items":[{"name":"\ud800","binary":"AA=="}]}`,
		`{"items":null}`,
		`[]`,
		`{`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var m BatchManifest
		if json.Unmarshal(body, &m) != nil || m.Validate() != nil {
			return
		}
		data, err := json.Marshal(&m)
		if err != nil {
			t.Fatalf("accepted manifest does not marshal: %v", err)
		}
		var back BatchManifest
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("re-marshalled manifest %s does not decode: %v", data, err)
		}
		if err := back.Validate(); err != nil {
			t.Fatalf("re-marshalled manifest %s does not validate: %v", data, err)
		}
		if !reflect.DeepEqual(back.Items, m.Items) {
			t.Fatalf("round trip changed the items: %+v -> %+v", m.Items, back.Items)
		}
	})
}

// TestReadSSECapsEventData: data lines that never reach the blank line
// ending an event stop at MaxSSEEvent bytes with an error, instead of
// accumulating without bound.
func TestReadSSECapsEventData(t *testing.T) {
	line := "data: " + strings.Repeat("x", 1<<20) + "\n"
	stream := strings.Repeat(line, MaxSSEEvent>>20+1)
	called := false
	err := ReadSSE(strings.NewReader(stream), func(BatchEvent) bool { called = true; return true })
	if err == nil || !strings.Contains(err.Error(), "over") {
		t.Fatalf("ReadSSE of %d bytes of unterminated data: err = %v", len(stream), err)
	}
	if called {
		t.Fatal("ReadSSE delivered an event from an over-cap stream")
	}
}

// FuzzReadSSE: ReadSSE reads the event stream a batch client follows
// from a server, so no input may panic it, and every event it accepts
// must survive WriteSSE and ReadSSE again unchanged. WriteSSE refuses
// only a type with a line break.
func FuzzReadSSE(f *testing.F) {
	var valid bytes.Buffer
	for _, ev := range []BatchEvent{
		{Seq: 1, Type: EventItemStage, Item: 0, Name: "a", Stage: "cfg", WallUS: 12},
		{Seq: 2, Type: EventJobDone, Item: -1, Done: 1, Total: 1},
	} {
		if err := WriteSSE(&valid, ev); err != nil {
			f.Fatal(err)
		}
	}
	for _, seed := range []string{
		valid.String(),
		": keep-alive\r\nid: 1\r\nevent: job-done\r\ndata: {\"seq\":1,\"type\":\"job-done\",\"item\":-1}\r\n\r\n",
		"data: {\"seq\":3,\"type\":\"item-done\"}",                    // no blank line before EOF
		"data: {\"seq\":1,\n" + "data: \"type\":\"item-failed\"}\n\n", // data split over two lines
		"data:{\"seq\":1}\n\n",    // no space after the colon
		"data: {\"seq\":1}{}\n\n", // trailing JSON
		"data: {]\n\n",
		"data: {\"type\":\"x\\n\\ndata: {}\"}\n\n", // a type WriteSSE refuses
		"data: {\"seq\":\"1\"}\n\n",                // wrong JSON type
		"\n\n\n",
		"",
	} {
		f.Add([]byte(seed))
	}
	collect := func(r io.Reader) ([]BatchEvent, error) {
		var evs []BatchEvent
		err := ReadSSE(r, func(ev BatchEvent) bool { evs = append(evs, ev); return true })
		return evs, err
	}
	f.Fuzz(func(t *testing.T, stream []byte) {
		evs, _ := collect(bytes.NewReader(stream))
		for _, ev := range evs {
			var buf bytes.Buffer
			if err := WriteSSE(&buf, ev); err != nil {
				if strings.ContainsAny(ev.Type, "\r\n") {
					continue
				}
				t.Fatalf("accepted event %+v does not write: %v", ev, err)
			}
			back, err := collect(&buf)
			if err != nil {
				t.Fatalf("written event %q does not read back: %v", buf.String(), err)
			}
			if len(back) != 1 || back[0] != ev {
				t.Fatalf("round trip changed the event: %+v -> %+v", ev, back)
			}
		}
	})
}
