package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilSpanIsSafe(t *testing.T) {
	var s *Span
	s.End()
	s.SetAttr("k", "v")
	s.SetInt("n", 3)
	if s.Record("lap", time.Millisecond) != nil {
		t.Fatal("nil span recorded a lap")
	}
	if _, ok := s.Attr("k"); ok {
		t.Fatal("nil span returned an attribute")
	}
	if s.Render() != "" || s.Dur() != 0 || s.Name() != "" || s.Find("x") != nil {
		t.Fatal("nil span leaked state")
	}
}

func TestSpanTree(t *testing.T) {
	root := NewTrace("request")
	root.SetAttr("path", "cold")
	an := root.Record("analyze", 3*time.Millisecond)
	an.Record("cfg", 2*time.Millisecond)
	an.Record("funcptr-analysis", time.Millisecond)
	pt := root.Record("patch", time.Millisecond)
	pt.SetInt("trampolines", 12)
	root.End()

	if root.Find("cfg") == nil || root.Find("patch") == nil {
		t.Fatal("Find missed recorded spans")
	}
	if root.Find("cfg").Dur() != 2*time.Millisecond {
		t.Fatalf("recorded lap duration %v", root.Find("cfg").Dur())
	}
	if v, ok := root.Find("patch").Attr("trampolines"); !ok || v != "12" {
		t.Fatalf("patch attr trampolines = %q, %v", v, ok)
	}
	out := root.Render()
	for _, want := range []string{"request", "path=cold", "  analyze", "    cfg 2ms", "  patch", "trampolines=12"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "(running)") {
		t.Errorf("ended spans render as running:\n%s", out)
	}
}

func TestSpanConcurrentChildren(t *testing.T) {
	root := NewTrace("r")
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := root.Record("c", time.Millisecond)
			c.SetAttr("k", "v")
		}()
	}
	wg.Wait()
	root.End()
	if got := strings.Count(root.Render(), "\n"); got != 16 {
		t.Fatalf("expected 16 children, rendered %d lines after root", got)
	}
}

func TestEndTwiceKeepsFirstDuration(t *testing.T) {
	s := NewTrace("x")
	s.End()
	d := s.Dur()
	time.Sleep(2 * time.Millisecond)
	s.End()
	if s.Dur() != d {
		t.Fatal("second End changed the duration")
	}
}
