package obsv_test

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/obsv"
	"repro/internal/testutil"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestServerEndpoints(t *testing.T) {
	defer testutil.CheckGoroutines(t)()

	obs := obsv.New(obsv.Config{Tracing: true})
	obs.Registry.Counter("core.export.skips", obsv.L("program", "F")).Add(2)
	ring := obs.Tracer.Ring("F", 0)
	ring.Record(obsv.Span{Name: "export", TS: 10, Dur: 5, Flow: obs.Tracer.NewSpanID()})
	obs.AddStatus("conns", func(w io.Writer) { io.WriteString(w, "F>U depth=1\n") })

	srv, err := obsv.Serve("127.0.0.1:0", obs)
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + srv.Addr()

	if code, body := get(t, base+"/metrics"); code != 200 || !strings.Contains(body, `core_export_skips{program="F"} 2`) {
		t.Errorf("/metrics code=%d body=%q", code, body)
	}
	if code, body := get(t, base+"/trace"); code != 200 || !strings.Contains(body, `"traceEvents"`) || !strings.Contains(body, `"export"`) {
		t.Errorf("/trace code=%d body=%q", code, body)
	}
	if code, body := get(t, base+"/statusz"); code != 200 || !strings.Contains(body, "== conns ==") || !strings.Contains(body, "F>U depth=1") {
		t.Errorf("/statusz code=%d body=%q", code, body)
	}
	if code, _ := get(t, base+"/debug/pprof/cmdline"); code != 200 {
		t.Errorf("/debug/pprof/cmdline code=%d", code)
	}
	if code, _ := get(t, base+"/nosuch"); code != 404 {
		t.Errorf("unknown path code=%d, want 404", code)
	}

	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// Idle HTTP keep-alive connections from http.DefaultClient can linger;
	// close them so the leak check sees a quiet runtime.
	http.DefaultClient.CloseIdleConnections()
}

func TestServerCloseIsIdempotentAndNilSafe(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	var nilSrv *obsv.Server
	if err := nilSrv.Close(); err != nil {
		t.Fatalf("nil close: %v", err)
	}
	obs := obsv.New(obsv.Config{})
	srv, err := obsv.Serve("127.0.0.1:0", obs)
	if err != nil {
		t.Fatal(err)
	}
	// Repeated Close must drain the listener exactly once, leak nothing,
	// and keep returning the first outcome.
	for i := 0; i < 3; i++ {
		if err := srv.Close(); err != nil {
			t.Fatalf("close #%d: %v", i+1, err)
		}
	}
}

func TestServerDynamicHandlers(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	obs := obsv.New(obsv.Config{})
	srv, err := obsv.Serve("127.0.0.1:0", obs)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		srv.Close()
		http.DefaultClient.CloseIdleConnections()
	}()
	base := "http://" + srv.Addr()

	if code, _ := get(t, base+"/diag/stragglers"); code != 404 {
		t.Fatalf("unregistered path code=%d, want 404", code)
	}
	// Registration after Serve started must take effect (frameworks are
	// usually built after the introspection server binds).
	obs.Handle("/diag/stragglers", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "stragglers here")
	}))
	if code, body := get(t, base+"/diag/stragglers"); code != 200 || body != "stragglers here" {
		t.Fatalf("registered path code=%d body=%q", code, body)
	}
	if code, body := get(t, base+"/"); code != 200 || !strings.Contains(body, "/diag/stragglers") {
		t.Fatalf("index missing handler path: code=%d body=%q", code, body)
	}
	obs.Handle("/diag/stragglers", nil)
	if code, _ := get(t, base+"/diag/stragglers"); code != 404 {
		t.Fatalf("removed path still served")
	}
}

func TestStatusSectionsSorted(t *testing.T) {
	obs := obsv.New(obsv.Config{})
	obs.AddStatus("zz", func(w io.Writer) { io.WriteString(w, "last\n") })
	obs.AddStatus("aa", func(w io.Writer) { io.WriteString(w, "first\n") })
	var b strings.Builder
	obs.WriteStatus(&b)
	out := b.String()
	if strings.Index(out, "== aa ==") > strings.Index(out, "== zz ==") {
		t.Fatalf("sections out of order:\n%s", out)
	}
	obs.RemoveStatus("zz")
	b.Reset()
	obs.WriteStatus(&b)
	if strings.Contains(b.String(), "zz") {
		t.Fatal("removed section still rendered")
	}
}
