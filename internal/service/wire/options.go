package wire

import (
	"errors"
	"flag"
	"fmt"
	"net/url"
	"reflect"
	"slices"
	"strconv"
	"strings"

	"icfgpatch/internal/core"
	"icfgpatch/internal/instrument"
)

// option is one row of the option codec: a query key, the core.Options
// field it carries, whether it is part of the analysis identity
// (core.AnalysisConfig) as well as the result identity, and the help
// text of the CLI flag it registers (RegisterFlags). The rows are the
// only place an identity option is named.
type option struct {
	key      string
	analysis bool
	field    func(o *core.Options) any // a pointer to the field
	names    []string                  // an enumeration's values, by field value
	help     string
}

var modeNames = []string{core.ModeDir: "dir", core.ModeJT: "jt", core.ModeFuncPtr: "func-ptr"}

// options is the codec. Absent keys take ParseOptions' defaults: jt,
// block entry, empty payload, every function, no verify, no gap,
// evidence on.
var options = []option{
	{"mode", true, func(o *core.Options) any { return &o.Mode }, modeNames,
		"rewriting mode: dir, jt, func-ptr"},
	{"where", false, func(o *core.Options) any { return &o.Request.Where }, []string{instrument.BlockEntry: "block", instrument.FuncEntry: "func"},
		"instrumentation point: block, func"},
	{"payload", false, func(o *core.Options) any { return &o.Request.Payload }, []string{instrument.PayloadEmpty: "empty", instrument.PayloadCounter: "counter"},
		"payload: empty, counter"},
	{"funcs", false, func(o *core.Options) any { return &o.Request.Funcs }, nil,
		"comma-separated function subset (default: all)"},
	{"verify", false, func(o *core.Options) any { return &o.Verify }, nil,
		"overwrite stale original code with illegal instructions"},
	{"gap", false, func(o *core.Options) any { return &o.InstrGap }, nil,
		"force a gap (bytes) before the relocated code section"},
	{"no-evidence", true, func(o *core.Options) any { return &o.NoEvidence }, nil,
		"disable the landing-pad evidence layer: func-ptr mode takes the conservative path even on CFI builds"},
}

// render returns the row's value in o, "" to leave the key out (the
// option is at its default), or an error when the wire cannot express
// it.
func (row option) render(o *core.Options) (string, error) {
	f := reflect.ValueOf(row.field(o)).Elem()
	switch {
	case row.names != nil:
		if f.Uint() < uint64(len(row.names)) {
			return row.names[f.Uint()], nil
		}
		return "", fmt.Errorf("%s %d is not expressible on the wire", row.key, f.Uint())
	case f.IsZero():
		return "", nil
	case f.Kind() == reflect.Bool:
		return "1", nil
	case f.Kind() == reflect.Uint64:
		return strconv.FormatUint(f.Uint(), 10), nil
	}
	fs := f.Interface().([]string)
	if len(fs) == 0 || slices.ContainsFunc(fs, func(f string) bool { return f == "" || strings.Contains(f, ",") }) {
		return "", fmt.Errorf("function subset %q is not expressible on the wire", fs)
	}
	return strings.Join(fs, ","), nil
}

func (row option) parse(o *core.Options, s string) (err error) {
	switch p := row.field(o).(type) {
	case *bool:
		if *p, err = strconv.ParseBool(s); err != nil {
			err = fmt.Errorf("bad value %q, want 1 or 0", s)
		}
	case *uint64:
		if *p, err = strconv.ParseUint(s, 10, 64); err != nil {
			err = fmt.Errorf("bad value %q, want a byte count", s)
		}
	case *[]string:
		if *p = strings.Split(s, ","); slices.Contains(*p, "") {
			err = fmt.Errorf("bad value %q: empty function name", s)
		}
	case *core.Mode:
		*p, err = ParseMode(s)
	default:
		i := slices.Index(row.names, s)
		if i < 0 {
			return fmt.Errorf("unknown %s %q", row.key, s)
		}
		reflect.ValueOf(p).Elem().SetUint(uint64(i))
	}
	return err
}

// ParseMode parses a wire mode string; "" selects the default (jt) and
// "funcptr" is accepted for "func-ptr".
func ParseMode(m string) (core.Mode, error) {
	if alias, ok := map[string]string{"": "jt", "funcptr": "func-ptr"}[m]; ok {
		m = alias
	}
	i := slices.Index(modeNames, m)
	if i < 0 {
		return 0, fmt.Errorf("unknown mode %q", m)
	}
	return core.Mode(i), nil
}

// EncodeOptions renders o as its /rewrite query: the request identity.
// It refuses what it cannot express instead of dropping it — baseline
// variants, a suppressed RA map, instrumentation addresses, function
// names that are empty or carry a comma — since a dropped option would
// be served, and cached, as another request. A profile travels in the
// body (FrameProfile), so it is refused too.
func EncodeOptions(o core.Options) (url.Values, error) {
	if o.Variant != (core.Variant{}) || o.NoRAMap || len(o.Request.Addrs) > 0 || o.Profile != nil {
		return nil, errors.New("wire: baseline variants, NoRAMap and instrumentation addresses are not expressible on the wire; a profile travels in the body (profile=1)")
	}
	v := url.Values{}
	for _, row := range options {
		s, err := row.render(&o)
		if err != nil {
			return nil, fmt.Errorf("wire: %w", err)
		}
		if s != "" {
			v.Set(row.key, s)
		}
	}
	return v, nil
}

// AnalysisQuery renders only the analysis rows of an EncodeOptions
// encoding: the identity the analysis store keys on.
func AnalysisQuery(v url.Values) string {
	var b strings.Builder
	for _, row := range options {
		if s := v.Get(row.key); row.analysis && s != "" {
			if b.Len() > 0 {
				b.WriteByte('&')
			}
			b.WriteString(row.key)
			b.WriteByte('=')
			b.WriteString(url.QueryEscape(s))
		}
	}
	return b.String()
}

// ParseOptions is EncodeOptions' inverse and the parse target of every
// surface that takes options: the doors, batch items and the CLI flags.
// An unknown key, a repeated key or a malformed value is an error, so a
// misspelt option is refused rather than served as its default. A door
// splits off its own transport keys first.
func ParseOptions(v url.Values) (core.Options, error) {
	o := core.Options{Mode: core.ModeJT}
	for k, vs := range v {
		i := slices.IndexFunc(options, func(row option) bool { return row.key == k })
		if i < 0 {
			return o, fmt.Errorf("wire: unknown option %q", k)
		}
		if err := set(k, vs, func(s string) error { return options[i].parse(&o, s) }); err != nil {
			return o, err
		}
	}
	return o, nil
}

// RegisterFlags declares one flag per codec row on fs, named by its key
// and carrying its help text: a bool flag for a bool field, a uint flag
// for a byte count, a string flag defaulting to ParseOptions' value for
// the rest. The returned function, called after fs.Parse, parses the
// flags that were set with ParseOptions, so a flag takes exactly the
// values its query key does.
func RegisterFlags(fs *flag.FlagSet) func() (core.Options, error) {
	def := core.Options{Mode: core.ModeJT}
	for _, row := range options {
		switch row.field(&def).(type) {
		case *bool:
			fs.Bool(row.key, false, row.help)
		case *uint64:
			fs.Uint64(row.key, 0, row.help)
		default:
			s, _ := row.render(&def) // the defaults are expressible
			fs.String(row.key, s, row.help)
		}
	}
	return func() (core.Options, error) {
		v := url.Values{}
		fs.Visit(func(f *flag.Flag) {
			if slices.ContainsFunc(options, func(row option) bool { return row.key == f.Name }) {
				v.Set(f.Name, f.Value.String())
			}
		})
		return ParseOptions(v)
	}
}

// set applies parse to a key's one value; a repeated key is an error.
func set(key string, vs []string, parse func(string) error) error {
	err := fmt.Errorf("given %d times", len(vs))
	if len(vs) == 1 {
		err = parse(vs[0])
	}
	if err != nil {
		return fmt.Errorf("wire: option %q: %w", key, err)
	}
	return nil
}

// ParseRewriteQuery is the /rewrite door's parse, shared by the serve
// door and the gateway. It splits off the door's transport keys — at
// most one value each, and not part of the request identity: profile=1
// (FrameProfile body), trace=1 (span tree in the reply) and lane=batch
// (batch lane) — and parses the rest with ParseOptions.
func ParseRewriteQuery(q url.Values) (core.Options, map[string]string, error) {
	rest, t := url.Values{}, map[string]string{}
	for k, vs := range q {
		if k != "profile" && k != "trace" && k != "lane" {
			rest[k] = vs
		} else if err := set(k, vs, func(s string) error { t[k] = s; return nil }); err != nil {
			return core.Options{}, nil, err
		}
	}
	o, err := ParseOptions(rest)
	return o, t, err
}
