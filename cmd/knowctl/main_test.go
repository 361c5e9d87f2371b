package main

import (
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/server"
)

// ctl runs one knowctl invocation against the test daemon and returns its
// stdout.
func ctl(t *testing.T, url string, args ...string) string {
	t.Helper()
	var sb strings.Builder
	if err := run(append([]string{"-addr", url}, args...), &sb); err != nil {
		t.Fatalf("knowctl %v: %v\n%s", args, err, sb.String())
	}
	return sb.String()
}

func TestFullSessionDialogue(t *testing.T) {
	srv := server.New(server.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if out := ctl(t, ts.URL, "systems"); !strings.Contains(out, "muddy:N") || !strings.Contains(out, "scenario:dup") {
		t.Fatalf("systems output:\n%s", out)
	}
	out := ctl(t, ts.URL, "open", "muddy:3")
	if !strings.Contains(out, "muddy:3") || !strings.Contains(out, "worlds 8") {
		t.Fatalf("open output:\n%s", out)
	}
	sid := strings.Fields(out)[0]

	out = ctl(t, ts.URL, "eval", sid, "K0 muddy1", "K0 muddy0")
	if !strings.Contains(out, "4        true   K0 muddy1") || !strings.Contains(out, "0        false  K0 muddy0") {
		t.Fatalf("eval output:\n%s", out)
	}
	out = ctl(t, ts.URL, "-worlds", "eval", sid, "K0 muddy1")
	if !strings.Contains(out, "worlds [") {
		t.Fatalf("eval -worlds output:\n%s", out)
	}
	out = ctl(t, ts.URL, "announce", sid, "muddy0 | muddy1 | muddy2")
	if !strings.Contains(out, "link 1") || !strings.Contains(out, "worlds 7") {
		t.Fatalf("announce output:\n%s", out)
	}
	if out = ctl(t, ts.URL, "sessions"); !strings.Contains(out, sid) {
		t.Fatalf("sessions output:\n%s", out)
	}
	if out = ctl(t, ts.URL, "stats"); !strings.Contains(out, "evals 2 announces 1") {
		t.Fatalf("stats output:\n%s", out)
	}
	if out = ctl(t, ts.URL, "close", sid); !strings.Contains(out, "closed "+sid) {
		t.Fatalf("close output:\n%s", out)
	}
}

func TestUsageErrors(t *testing.T) {
	srv := server.New(server.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	var sb strings.Builder
	for _, args := range [][]string{
		{"-addr", ts.URL},
		{"-addr", ts.URL, "quantum"},
		{"-addr", ts.URL, "open"},
		{"-addr", ts.URL, "eval", "s1"},
		{"-addr", ts.URL, "announce", "s1"},
		{"-addr", ts.URL, "close"},
	} {
		if err := run(args, &sb); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
	// Server-side rejection surfaces as an error, not a panic.
	if err := run([]string{"-addr", ts.URL, "open", "quantum"}, &sb); err == nil {
		t.Error("unknown system spec accepted")
	}
}
