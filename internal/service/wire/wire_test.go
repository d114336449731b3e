package wire

import (
	"bytes"
	"encoding/binary"
	"net/url"
	"reflect"
	"strings"
	"testing"

	"icfgpatch/internal/core"
	"icfgpatch/internal/instrument"
	"icfgpatch/internal/profile"
)

// TestFrameRoundTrip: WriteFrame's output parses back to the same reply
// and image through ReadFrame.
func TestFrameRoundTrip(t *testing.T) {
	in := &Reply{FuncsReused: 3, FuncsRecomputed: 1, AnalysisHit: true, ElapsedUS: 1234}
	image := []byte("not really a binary, but the frame does not care")
	var buf bytes.Buffer
	if err := WriteFrame(&buf, in, image); err != nil {
		t.Fatal(err)
	}
	out, gotImage, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.FuncsReused != in.FuncsReused || out.FuncsRecomputed != in.FuncsRecomputed ||
		out.AnalysisHit != in.AnalysisHit || out.ElapsedUS != in.ElapsedUS {
		t.Fatalf("reply round trip: got %+v, want %+v", out, in)
	}
	if !bytes.Equal(gotImage, image) {
		t.Fatalf("image round trip: got %q", gotImage)
	}
}

// TestReadFrameRejects pins the reader's defence: truncated streams and
// hostile length prefixes error out instead of allocating or hanging.
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
