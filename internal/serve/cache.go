package serve

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/gltrace"
	"repro/internal/obs"
	"repro/internal/tbr"
	"repro/megsim"
)

// Cache is the service's content-addressed result cache. It holds three
// layers, each keyed by a hash of everything that determines the value:
//
//   - traces by WorkloadKey (the generators are pure functions of the
//     resolved spec, so a trace is shared by every campaign naming it);
//   - characterizations by WorkloadKey (MEGsim's cheap pass depends on
//     the trace alone — campaigns with different GPU or clustering
//     settings still share it);
//   - per-representative FrameStats by (megsim.RunFingerprint, frame) —
//     frame isolation makes a representative's statistics a pure
//     function of (trace, result-affecting GPU config, frame), so
//     campaigns that select overlapping representatives (different
//     thresholds or seeds over the same workload) skip re-simulating
//     the shared ones.
//
// Every layer is singleflight-deduplicated: concurrent misses on one
// key run the builder once and share the value (and error), so a burst
// of identical submissions costs one simulation. Errors are never
// cached — the next caller retries.
//
// Hits and misses are counted into the service registry
// (serve.cache.{trace,char,frame}.{hit,miss}); a caller that joined an
// in-flight build counts as a hit (it paid nothing).
type Cache struct {
	mu      sync.Mutex
	traces  *fifoMap[*gltrace.Trace]
	chars   *fifoMap[*megsim.Characterization]
	frames  *fifoMap[tbr.FrameStats]
	flights map[string]*flight

	traceHit, traceMiss *obs.Counter
	charHit, charMiss   *obs.Counter
	frameHit, frameMiss *obs.Counter
}

// Default cache capacities (entries, FIFO-evicted).
const (
	DefaultMaxWorkloads = 32
	DefaultMaxFrames    = 4096
)

// NewCache builds a cache recording hit/miss counters into reg.
// maxFrames bounds the FrameStats layer (0 = DefaultMaxFrames); the
// trace and characterization layers hold DefaultMaxWorkloads entries.
func NewCache(reg *obs.Registry, maxFrames int) *Cache {
	if maxFrames <= 0 {
		maxFrames = DefaultMaxFrames
	}
	return &Cache{
		traces:    newFifoMap[*gltrace.Trace](DefaultMaxWorkloads),
		chars:     newFifoMap[*megsim.Characterization](DefaultMaxWorkloads),
		frames:    newFifoMap[tbr.FrameStats](maxFrames),
		flights:   map[string]*flight{},
		traceHit:  reg.Counter("serve.cache.trace.hit"),
		traceMiss: reg.Counter("serve.cache.trace.miss"),
		charHit:   reg.Counter("serve.cache.char.hit"),
		charMiss:  reg.Counter("serve.cache.char.miss"),
		frameHit:  reg.Counter("serve.cache.frame.hit"),
		frameMiss: reg.Counter("serve.cache.frame.miss"),
	}
}

// Trace returns the cached trace for key, building (once, shared) on a
// miss. ctx bounds only the wait on another caller's in-flight build.
func (c *Cache) Trace(ctx context.Context, key string, build func() (*gltrace.Trace, error)) (*gltrace.Trace, error) {
	return cacheGet(ctx, c, c.traces, "trace:"+key, c.traceHit, c.traceMiss, build)
}

// Characterization returns the cached functional characterization for
// key, building (once, shared) on a miss.
func (c *Cache) Characterization(ctx context.Context, key string, build func() (*megsim.Characterization, error)) (*megsim.Characterization, error) {
	return cacheGet(ctx, c, c.chars, "char:"+key, c.charHit, c.charMiss, build)
}

// FrameRunner wraps a frame function with the per-representative
// result cache under run fingerprint fp: hits return the cached
// statistics without simulating (the supervisor still checkpoints and
// counts them); misses simulate via fn and populate the cache. The
// wrapped function stays pure per frame — exactly fn's contract — so
// SamplePrepared's guarantees are unchanged. A cache-hit
// frame records no observability delta (there was no simulation);
// service-level metrics account for the hit instead.
func (c *Cache) FrameRunner(fp string, fn megsim.ResilientFrameFunc) megsim.ResilientFrameFunc {
	return func(ctx context.Context, frame int, reg *obs.Registry) (tbr.FrameStats, error) {
		key := fmt.Sprintf("frame:%s#%d", fp, frame)
		return cacheGet(ctx, c, c.frames, key, c.frameHit, c.frameMiss, func() (tbr.FrameStats, error) {
			return fn(ctx, frame, reg)
		})
	}
}

// cacheGet is the shared lookup-or-build path: map hit, else join or
// start the singleflight. A joiner waits for the builder (or its own
// ctx — the builder runs under a different job's context, and one
// job's cancellation must not strand another).
func cacheGet[V any](ctx context.Context, c *Cache, m *fifoMap[V], key string, hit, miss *obs.Counter, build func() (V, error)) (V, error) {
	var zero V
	c.mu.Lock()
	if v, ok := m.get(key); ok {
		c.mu.Unlock()
		hit.Inc()
		return v, nil
	}
	if f, ok := c.flights[key]; ok {
		c.mu.Unlock()
		select {
		case <-ctx.Done():
			return zero, ctx.Err()
		case <-f.done:
		}
		if f.err == nil {
			hit.Inc()
			return f.val.(V), nil
		}
		return zero, f.err
	}
	f := &flight{done: make(chan struct{})}
	c.flights[key] = f
	c.mu.Unlock()

	miss.Inc()
	v, err := build()
	c.mu.Lock()
	if err == nil {
		m.put(key, v)
	}
	delete(c.flights, key)
	c.mu.Unlock()
	f.val, f.err = v, err
	close(f.done)
	return v, err
}

// flight is one in-progress build shared by concurrent callers.
type flight struct {
	done chan struct{}
	val  any
	err  error
}

// fifoMap is a bounded map with first-in-first-out eviction — enough
// for a result cache whose entries are equally cheap to rebuild.
// Callers synchronize access (Cache.mu).
type fifoMap[V any] struct {
	cap   int
	m     map[string]V
	order []string
}

func newFifoMap[V any](cap int) *fifoMap[V] {
	return &fifoMap[V]{cap: cap, m: make(map[string]V, cap)}
}

func (f *fifoMap[V]) get(key string) (V, bool) {
	v, ok := f.m[key]
	return v, ok
}

func (f *fifoMap[V]) put(key string, v V) {
	if _, ok := f.m[key]; !ok {
		for len(f.m) >= f.cap && len(f.order) > 0 {
			oldest := f.order[0]
			f.order = f.order[1:]
			delete(f.m, oldest)
		}
		f.order = append(f.order, key)
	}
	f.m[key] = v
}

func (f *fifoMap[V]) len() int { return len(f.m) }
