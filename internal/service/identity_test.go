package service

import (
	"reflect"
	"sort"
	"testing"

	"icfgpatch/internal/core"
	"icfgpatch/internal/instrument"
	"icfgpatch/internal/service/wire"
)

// TestOptionIdentityComplete walks every field of core.Options (into
// instrument.Request and core.Variant) and flips it. Each flip must
// change the wire encoding or make EncodeOptions refuse the options;
// Profile, which travels in the body, must change the Fingerprint. A field added without a codec row
// fails here. The analysis key must follow exactly the analysis rows:
// mode and no-evidence split it, the instrumentation rows must not —
// request shapes share one analysis.
func TestOptionIdentityComplete(t *testing.T) {
	const hash = "0123abcd"
	analysisRows := map[string]bool{"mode": true, "no-evidence": true}

	base := core.Options{Mode: core.ModeJT}
	baseQ, err := wire.EncodeOptions(base)
	if err != nil {
		t.Fatal(err)
	}
	baseFP, baseAK := keys(t, hash, base)

	var leaves [][]int
	var collect func(ty reflect.Type, prefix []int)
	collect = func(ty reflect.Type, prefix []int) {
		for i := 0; i < ty.NumField(); i++ {
			idx := append(append([]int(nil), prefix...), i)
			if ft := ty.Field(i).Type; ft == reflect.TypeOf(instrument.Request{}) || ft == reflect.TypeOf(core.Variant{}) {
				collect(ft, idx)
				continue
			}
			leaves = append(leaves, idx)
		}
	}
	collect(reflect.TypeOf(core.Options{}), nil)

	covered := map[string]bool{}
	for _, idx := range leaves {
		o := base
		f := reflect.ValueOf(&o).Elem().FieldByIndex(idx)
		field := reflect.TypeOf(o).FieldByIndex(idx).Name
		flip(t, field, f)
		q, encErr := wire.EncodeOptions(o)
		switch {
		case field == "Profile":
			if fp, _ := keys(t, hash, o); fp == baseFP {
				t.Errorf("a profile does not change the fingerprint")
			}
		case encErr != nil:
			// Refused: the service cannot be asked for it, so no key
			// needs to render it.
		default:
			changed := changedKeys(baseQ, q)
			if len(changed) == 0 {
				t.Errorf("%s: flipping it leaves the encoding %q unchanged", field, q.Encode())
				continue
			}
			fp, ak := keys(t, hash, o)
			if fp == baseFP {
				t.Errorf("%s: flipping it leaves the fingerprint unchanged", field)
			}
			for _, k := range changed {
				covered[k] = true
				if analysisRows[k] != (ak != baseAK) {
					t.Errorf("%s (row %s): analysis key %q vs %q; want it to change iff the row is an analysis row", field, k, ak.Opts, baseAK.Opts)
				}
			}
		}
	}
	var got []string
	for k := range covered {
		got = append(got, k)
	}
	sort.Strings(got)
	want := []string{"funcs", "gap", "mode", "no-evidence", "payload", "verify", "where"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("rows reached by flipping fields: %v, want %v", got, want)
	}
}

func keys(t *testing.T, hash string, o core.Options) (string, analysisKey) {
	t.Helper()
	fp, ak, err := requestKeys(hash, o)
	if err != nil {
		t.Fatal(err)
	}
	return fp, ak
}

// flip gives v a value other than its zero one.
func flip(t *testing.T, field string, v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uint:
		v.SetUint(v.Uint() + 1)
	case reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64, reflect.Int:
		v.SetInt(v.Int() + 1)
	case reflect.String:
		v.SetString(v.String() + "f")
	case reflect.Slice:
		e := reflect.New(v.Type().Elem()).Elem()
		flip(t, field, e)
		v.Set(reflect.Append(v, e))
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
	default:
		t.Fatalf("%s: no flip for a %s field; extend the test", field, v.Kind())
	}
}

func changedKeys(a, b map[string][]string) []string {
	var out []string
	for k := range a {
		if !reflect.DeepEqual(a[k], b[k]) {
			out = append(out, k)
		}
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			out = append(out, k)
		}
	}
	return out
}
