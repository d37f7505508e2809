package obsv

import (
	"io"
	"net/http"
	"sort"
	"sync"
)

// Config selects what an Observer records.
type Config struct {
	// Tracing enables span recording and trace-ID piggybacking on the wire.
	// When false the Tracer is nil and the hot path pays one nil check.
	Tracing bool
}

// Observer bundles the metrics registry, the (optional) span tracer, and
// the named status sections rendered at /statusz. One Observer serves a
// whole OS process; frameworks and commands share it.
type Observer struct {
	Registry *Registry
	Tracer   *Tracer

	mu       sync.Mutex
	status   map[string]func(io.Writer)
	handlers map[string]http.Handler
}

// New returns an Observer with a fresh registry, plus a wall-clock tracer
// when cfg.Tracing is set.
func New(cfg Config) *Observer {
	o := &Observer{
		Registry: NewRegistry(),
		status:   make(map[string]func(io.Writer)),
		handlers: make(map[string]http.Handler),
	}
	if cfg.Tracing {
		o.Tracer = NewTracer(0, nil)
	}
	return o
}

// Handle registers (or replaces) an HTTP handler the introspection server
// exposes at path (exact match, e.g. "/diag/stragglers"). Lookups happen per
// request, so handlers wired after Serve started — a framework built later
// in main — still appear. A nil handler removes the registration.
func (o *Observer) Handle(path string, h http.Handler) {
	if o == nil {
		return
	}
	o.mu.Lock()
	if h == nil {
		delete(o.handlers, path)
	} else {
		o.handlers[path] = h
	}
	o.mu.Unlock()
}

// HandlerFor returns the handler registered at path, or nil.
func (o *Observer) HandlerFor(path string) http.Handler {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.handlers[path]
}

// handlerPaths returns the registered handler paths, sorted (for the index
// page).
func (o *Observer) handlerPaths() []string {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	paths := make([]string, 0, len(o.handlers))
	for p := range o.handlers {
		paths = append(paths, p)
	}
	o.mu.Unlock()
	sort.Strings(paths)
	return paths
}

// AddStatus registers (or replaces) a named /statusz section. The function
// is invoked per request; it should render short plain text.
func (o *Observer) AddStatus(name string, fn func(io.Writer)) {
	if o == nil {
		return
	}
	o.mu.Lock()
	o.status[name] = fn
	o.mu.Unlock()
}

// RemoveStatus drops a named section (used when a framework shuts down).
func (o *Observer) RemoveStatus(name string) {
	if o == nil {
		return
	}
	o.mu.Lock()
	delete(o.status, name)
	o.mu.Unlock()
}

// WriteStatus renders every status section, sorted by name.
func (o *Observer) WriteStatus(w io.Writer) {
	if o == nil {
		return
	}
	o.mu.Lock()
	names := make([]string, 0, len(o.status))
	for n := range o.status {
		names = append(names, n)
	}
	fns := make([]func(io.Writer), 0, len(names))
	sort.Strings(names)
	for _, n := range names {
		fns = append(fns, o.status[n])
	}
	o.mu.Unlock()
	for i, n := range names {
		io.WriteString(w, "== "+n+" ==\n")
		fns[i](w)
		io.WriteString(w, "\n")
	}
}
