package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/asrank-go/asrank/internal/apiserver"
	"github.com/asrank-go/asrank/internal/obs"
	"github.com/asrank-go/asrank/internal/pool"
	"github.com/asrank-go/asrank/internal/trace"
	"github.com/asrank-go/asrank/internal/warehouse"
)

// Serve shape: the warehouse the daemon serves, the share of requests
// that revalidate, and how often the client keeps a response for the
// byte-for-byte comparison with the in-process stack.
const (
	serveEpochs   = 12   // bootstrap plus 11 churn epochs
	conditional   = 500  // per mille of data requests sent with If-None-Match
	staleShare    = 8    // one in this many revalidations carries a stale validator
	sampleEvery   = 16   // keep every Nth response per client for comparison
	inprocPerKind = 1500 // in-process handler timings per route kind
	inprocMix     = 20000
	staleETag     = `"layerbench-stale"`

	// Observed-mode pricing: alternating segments per side.
	observedPairs   = 10
	observedSegment = 500 * time.Millisecond
)

// reqKind enumerates asbench's request mix.
type reqKind int

const (
	kindPoint reqKind = iota
	kindContains
	kindList
	kindLinks
	kindCone
	kindBulk
	kindClique
	kindHealth
	kindHistory
	kindEpochs
	numKinds
)

// timeTravelMix is asbench's weighted mix against a server with a
// warehouse (percent per kind).
var timeTravelMix = [numKinds]int{30, 14, 14, 10, 10, 5, 5, 4, 5, 3}

// handlerKinds are the routes timed in process, by metric suffix.
var handlerKinds = []struct {
	name string
	kind reqKind
}{
	{"point", kindPoint}, {"contains", kindContains}, {"list", kindList}, {"links", kindLinks},
	{"cone", kindCone}, {"bulk", kindBulk}, {"history", kindHistory},
}

// lcg is asbench's per-client generator (Knuth MMIX constants).
type lcg struct{ x uint64 }

func (r *lcg) next() uint64 {
	r.x = r.x*6364136223846793005 + 1442695040888963407
	return r.x >> 11
}

func (r *lcg) intn(n int) int { return int(r.next() % uint64(n)) }

// request is one drawn request: its route kind, path, and the
// validator it carries ("" for none).
type request struct {
	kind reqKind
	path string
	inm  string
}

// mixer draws requests from the mix.
type mixer struct {
	rng         lcg
	asns        []string
	snapETag    string
	historyETag string
}

func newMixer(seed int64, lane int, asns []string, snapETag, historyETag string) *mixer {
	return &mixer{rng: lcg{x: uint64(seed)*0x9e3779b97f4a7c15 + uint64(lane+1)},
		asns: asns, snapETag: snapETag, historyETag: historyETag}
}

func (m *mixer) pick() string { return m.asns[m.rng.intn(len(m.asns))] }

func (m *mixer) path(kind reqKind) string {
	switch kind {
	case kindPoint:
		return "/api/v1/asns/" + m.pick()
	case kindContains:
		return "/api/v1/asns/" + m.pick() + "/cone/contains/" + m.pick()
	case kindList:
		return "/api/v1/asns?limit=50&cursor=" + strconv.Itoa(m.rng.intn(len(m.asns)))
	case kindLinks:
		return "/api/v1/asns/" + m.pick() + "/links"
	case kindCone:
		return "/api/v1/asns/" + m.pick() + "/cone?limit=200"
	case kindBulk:
		ids := make([]string, 8)
		for i := range ids {
			ids[i] = m.pick()
		}
		return "/api/v1/asns?ids=" + strings.Join(ids, ",")
	case kindClique:
		return "/api/v1/clique"
	case kindHistory:
		return "/api/v1/asns/" + m.pick() + "/history"
	case kindEpochs:
		return "/api/v1/epochs"
	}
	return "/api/v1/health"
}

func (m *mixer) next() request {
	roll, kind := m.rng.intn(100), kindHealth
	for k, acc := reqKind(0), 0; k < numKinds; k++ {
		acc += timeTravelMix[k]
		if roll < acc {
			kind = k
			break
		}
	}
	req := request{kind: kind, path: m.path(kind)}
	if kind != kindHealth && m.rng.intn(1000) < conditional {
		switch {
		case m.rng.intn(staleShare) == 0:
			req.inm = staleETag
		case kind == kindHistory || kind == kindEpochs:
			req.inm = m.historyETag
		default:
			req.inm = m.snapETag
		}
	}
	return req
}

// wantStatus is the only status a correct server answers req with.
func wantStatus(req request) int {
	if req.inm != "" && req.inm != staleETag {
		return http.StatusNotModified
	}
	return http.StatusOK
}

// reference is the in-process copy of what the daemon serves: the same
// warehouse opened by the same code, the same snapshot build, the same
// NewServerWithStore stack.
type reference struct {
	store       *warehouse.Store
	data        *apiserver.Data
	handler     http.Handler
	snapETag    string
	historyETag string
	asns        []string
}

func newReference(dir string) (*reference, time.Duration, time.Duration, error) {
	t0 := time.Now()
	store, err := warehouse.Open(dir, warehouse.Options{Workers: engineWorkers})
	if err != nil {
		return nil, 0, 0, err
	}
	open := time.Since(t0)
	snap, _, ok := store.Latest()
	if !ok {
		return nil, 0, 0, errors.New("warehouse is empty")
	}
	t1 := time.Now()
	data := apiserver.BuildSnapshot(snap)
	build := time.Since(t1)
	ref := &reference{store: store, data: data, snapETag: data.ETag(), historyETag: store.History().ETag()}
	ref.handler = ref.stack(nil)
	// Aim lookups at the top of the ranking, as asbench does.
	rec := httptest.NewRecorder()
	ref.handler.ServeHTTP(rec, httptest.NewRequest("GET", "/api/v1/asns?limit=500", nil))
	for _, s := range strings.Split(rec.Body.String(), `"asn":`)[1:] {
		if i := strings.IndexAny(s, ",}"); i > 0 {
			ref.asns = append(ref.asns, s[:i])
		}
	}
	if len(ref.asns) == 0 {
		return nil, 0, 0, errors.New("snapshot ranks no ASes")
	}
	return ref, open, build, nil
}

// stack builds the production handler stack over the reference, with
// tr as Config.Tracer.
func (r *reference) stack(tr *trace.Tracer) http.Handler {
	return apiserver.NewServerWithStore(r.data, r.store,
		apiserver.Config{Registry: obs.NewRegistry(), Tracer: tr, Shed: apiserver.DefaultShedPolicy()})
}

// serveInProcess answers req from h without a network, timing only
// ServeHTTP (microseconds).
func serveInProcess(h http.Handler, req request) (*httptest.ResponseRecorder, float64) {
	r := httptest.NewRequest("GET", req.path, nil)
	if req.inm != "" {
		r.Header.Set("If-None-Match", req.inm)
	}
	w := httptest.NewRecorder()
	t0 := time.Now()
	h.ServeHTTP(w, r)
	return w, us(time.Since(t0))
}

// timeInProcess is the ServeHTTP time of req on h, in microseconds.
func timeInProcess(h http.Handler, req request) float64 {
	_, t := serveInProcess(h, req)
	return t
}

// daemon is one asrankd process serving the warehouse.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	done    chan error
	logPath string // the daemon's stdout and stderr: one line per request
}

// startDaemon starts asrankd on a free loopback port and waits until
// /readyz answers 200, retrying on a fresh port if the first is taken.
// Its log goes to logPath.
func startDaemon(ctx context.Context, bin, dir, logPath string, observed bool) (*daemon, error) {
	var err error
	for try := 0; try < 3 && ctx.Err() == nil; try++ {
		var d *daemon
		if d, err = tryDaemon(ctx, bin, dir, logPath, observed); err == nil {
			return d, nil
		}
	}
	return nil, err
}

func tryDaemon(ctx context.Context, bin, dir, logPath string, observed bool) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	args := []string{"-warehouse", dir, "-listen", addr, "-workers", strconv.Itoa(engineWorkers)}
	if observed {
		dbg, err := freeAddr()
		if err != nil {
			return nil, err
		}
		args = append(args, "-debug-listen", dbg)
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	d := &daemon{cmd: exec.Command(bin, args...), base: "http://" + addr, done: make(chan error, 1), logPath: logPath}
	d.cmd.Stdout, d.cmd.Stderr = logf, logf
	d.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start asrankd: %w", err)
	}
	//lint:ignore noderivedgo one waiter per daemon process, ended by its exit; stop waits for it
	go func() { d.done <- d.cmd.Wait() }()
	client := &http.Client{Timeout: time.Second, Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := client.Get(d.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case err := <-d.done:
			d.done <- err
			return nil, fmt.Errorf("asrankd exited before ready: %w: %s", err, d.logTail())
		case <-ctx.Done():
			d.stop()
			return nil, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("asrankd not ready after 60s: %s", d.logTail())
		}
	}
}

// stop drains the daemon with SIGINT, as an operator would, and waits
// for it to exit; after 15 s it is killed.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGINT)
	select {
	case <-d.done:
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
	}
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("find a free port: %w", err)
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// logTail returns the end of the daemon's log, to explain a failure.
func (d *daemon) logTail() string {
	raw, err := os.ReadFile(d.logPath)
	if err != nil {
		return err.Error()
	}
	if len(raw) > 2048 {
		raw = raw[len(raw)-2048:]
	}
	return string(raw)
}

// sample is one kept response, compared with the in-process stack
// after the measured phase.
type sample struct {
	req    request
	status int
	etag   string
	body   []byte
}

// clientStats is one client goroutine's observations.
type clientStats struct {
	latency        []float64 // ms, every completed request
	traced         []float64 // ms, traced requests (trace runs)
	untraced       []float64
	attempted      int
	failed         int
	notModified    int
	shed           int
	failures       map[string]int
	samples        []sample
	transportError error
}

func (s *clientStats) fail(reason string) {
	s.failed++
	if s.failures == nil {
		s.failures = make(map[string]int)
	}
	s.failures[reason]++
}

// drive runs one closed-loop client over its own connection until
// deadline: the next request goes out only after the previous answer
// is read.
func drive(ctx context.Context, base string, m *mixer, deadline time.Time, rec *recorder, lane uint64) *clientStats {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, IdleConnTimeout: time.Minute, DisableCompression: true}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: 10 * time.Second}
	s := &clientStats{}
	for i := 0; time.Now().Before(deadline) && ctx.Err() == nil; i++ {
		req := m.next()
		hreq, err := http.NewRequestWithContext(ctx, "GET", base+req.path, nil)
		if err != nil {
			s.attempted++
			s.fail("request")
			continue
		}
		if req.inm != "" {
			hreq.Header.Set("If-None-Match", req.inm)
		}
		keep := i%sampleEvery == 0
		s.attempted++
		t0 := time.Now()
		resp, err := client.Do(hreq)
		if err != nil {
			s.fail("transport")
			s.transportError = err
			continue
		}
		var body []byte
		if keep {
			body, err = io.ReadAll(resp.Body)
		} else {
			_, err = io.Copy(io.Discard, resp.Body)
		}
		resp.Body.Close()
		t1 := time.Now()
		if err != nil {
			s.fail("transport")
			s.transportError = err
			continue
		}
		lat := ms(t1.Sub(t0))
		s.latency = append(s.latency, lat)
		if rec != nil {
			if i%2 == 0 {
				rec.add(span{name: "net.request", id: rec.newID(), op: rec.newOp(), lane: lane, start: t0, end: t1})
				s.traced = append(s.traced, lat)
			} else {
				s.untraced = append(s.untraced, lat)
			}
		}
		switch code := resp.StatusCode; {
		case code == http.StatusNotModified:
			s.notModified++
		case code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable:
			s.shed++
		}
		if want := wantStatus(req); resp.StatusCode != want {
			s.fail(fmt.Sprintf("status %d, want %d", resp.StatusCode, want))
			continue
		}
		if keep {
			s.samples = append(s.samples, sample{req: req, status: resp.StatusCode, etag: resp.Header.Get("Etag"), body: body})
		}
	}
	return s
}

// load is what the client goroutines saw over one stretch of traffic.
type load struct {
	lat, traced, untraced []float64 // ms per completed request
	attempted, failed     int
	notModified, shed     int
	failures              map[string]int
	samples               []sample
	elapsed               time.Duration
	lastErr               error
}

// runLoad drives base with clientWorkers closed-loop clients, one
// connection each, until deadline. lane numbers the mixers so every
// stretch of traffic draws its own request sequence from the seed.
func runLoad(ctx context.Context, base string, seed int64, lane int, ref *reference, deadline time.Time, rec *recorder) load {
	stats := make([]*clientStats, clientWorkers)
	start := time.Now()
	pool.Range(clientWorkers, clientWorkers, func(w, _, _ int) {
		m := newMixer(seed, lane+w, ref.asns, ref.snapETag, ref.historyETag)
		stats[w] = drive(ctx, base, m, deadline, rec, uint64(w+1))
	})
	l := load{elapsed: time.Since(start), failures: make(map[string]int)}
	for _, s := range stats {
		l.lat = append(l.lat, s.latency...)
		l.traced = append(l.traced, s.traced...)
		l.untraced = append(l.untraced, s.untraced...)
		l.samples = append(l.samples, s.samples...)
		l.attempted += s.attempted
		l.failed += s.failed
		l.notModified += s.notModified
		l.shed += s.shed
		for k, v := range s.failures {
			l.failures[k] += v
		}
		if s.transportError != nil {
			l.lastErr = s.transportError
		}
	}
	return l
}

// mismatches counts sampled responses that differ from the in-process
// stack in status, ETag or body bytes.
func (l load) mismatches(ref *reference) int {
	n := 0
	for _, s := range l.samples {
		w, _ := serveInProcess(ref.handler, s.req)
		if w.Code != s.status || w.Header().Get("Etag") != s.etag || !bytes.Equal(w.Body.Bytes(), s.body) {
			n++
		}
	}
	return n
}

// runServe is the serve workload: plain asrankd (no debug listener)
// serving the warehouse, driven closed-loop. Its traced run also prices
// observed mode (see observedCost).
func runServe(ctx context.Context, cfg config, rec *recorder) (*result, error) {
	if cfg.asrankd == "" {
		return nil, errors.New("the serve workload needs --asrankd")
	}
	res := newResult()
	dir := filepath.Join(cfg.runDir, cfg.runID+"-wh")
	defer os.RemoveAll(dir)

	var d *daemon
	defer func() {
		if d != nil {
			d.stop()
		}
	}()
	var ref *reference
	var setups, opens, builds []float64
	for i := 0; i < setupReps; i++ {
		if d != nil {
			d.stop()
			d = nil
		}
		t0 := time.Now()
		if err := buildWarehouse(ctx, cfg.seed, dir); err != nil {
			return nil, err
		}
		var err error
		if d, err = startDaemon(ctx, cfg.asrankd, dir, filepath.Join(cfg.runDir, "serve.asrankd.log"), false); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		r, open, build, err := newReference(dir)
		if err != nil {
			return nil, err
		}
		ref = r
		opens = append(opens, ms(open))
		builds = append(builds, ms(build))
	}
	res.set("setup_s", median(setups))
	res.set("warehouse.open_ms", median(opens))
	res.set("apiserver.build_ms", median(builds))

	// The daemon must serve what the reference builds.
	got := fetchETag(d.base + "/api/v1/health")
	res.check("serve_etag", got == ref.snapETag, "daemon serves ETag %s, in-process build %s", got, ref.snapETag)

	if err := measureServe(ctx, cfg, dir, ref, d, rec, res); err != nil {
		return nil, err
	}
	// The client's samples are gone by now: what stays live is the
	// in-process copy of the daemon's serving state.
	res.set("live_heap_mb", heapMB())
	runtime.KeepAlive(ref)
	return res, nil
}

// measureServe drives the daemon for the measured phase, checks what
// it served, and, in a traced run, adds the per-layer metrics.
func measureServe(ctx context.Context, cfg config, dir string, ref *reference, d *daemon, rec *recorder, res *result) error {
	l := runLoad(ctx, d.base, cfg.seed, 0, ref, time.Now().Add(cfg.measure()), rec)
	if err := ctx.Err(); err != nil {
		return err
	}
	if len(l.lat) == 0 {
		return fmt.Errorf("no request completed: %w", l.lastErr)
	}
	res.setTiming("op_ms_p50", "op_ms_tail", l.lat)
	res.set("ops_per_s", float64(len(l.lat))/l.elapsed.Seconds())
	res.set("apiserver.not_modified_ratio", float64(l.notModified)/float64(l.attempted))
	res.set("apiserver.shed_ratio", float64(l.shed)/float64(l.attempted))
	res.attempted, res.failed = l.attempted, l.failed
	res.check("serve_status", l.failed == 0, "%d of %d requests failed %v", l.failed, l.attempted, l.failures)
	mismatch := l.mismatches(ref)
	res.failed += mismatch
	res.check("serve_bodies", mismatch == 0, "%d of %d sampled responses differ from the in-process stack", mismatch, len(l.samples))
	res.notef("warehouse: %d epochs; %d requests over %d connections; %d not modified, %d shed",
		ref.store.Len(), len(l.lat), clientConnections, l.notModified, l.shed)
	if rec == nil {
		return nil
	}
	serveLayers(res, ref, cfg.seed, l.lat, l.traced, l.untraced)
	rec.setSelfTimes(res, len(l.traced))
	return observedCost(ctx, cfg, dir, ref, d, res)
}

// observedCost prices observed mode: asrankd with -debug-listen, so
// the tracer, flight recorder and exemplars are on. A second daemon
// serves the same warehouse that way, and traffic alternates between
// the two in short segments, so host drift, which moves closed-loop
// request rates on a shared two-core host by tens of percent between
// runs minutes apart, hits both sides alike. Run as a workload of its
// own, observed mode spread by up to 35% across ten runs.
func observedCost(ctx context.Context, cfg config, dir string, ref *reference, plain *daemon, res *result) error {
	observed, err := startDaemon(ctx, cfg.asrankd, dir, filepath.Join(cfg.runDir, "serve-observed.asrankd.log"), true)
	if err != nil {
		return err
	}
	defer observed.stop()
	var side [2]load
	for seg := 0; seg < 2*observedPairs; seg++ {
		d := plain
		if seg%2 == 1 {
			d = observed
		}
		l := runLoad(ctx, d.base, cfg.seed, 100+2*seg, ref, time.Now().Add(observedSegment), nil)
		s := &side[seg%2]
		s.lat = append(s.lat, l.lat...)
		s.elapsed += l.elapsed
		s.attempted += l.attempted
		s.failed += l.failed + l.mismatches(ref)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	res.attempted += side[0].attempted + side[1].attempted
	res.failed += side[0].failed + side[1].failed
	res.check("observed_status", side[0].failed+side[1].failed == 0,
		"%d of %d paired requests failed or differ from the in-process stack",
		side[0].failed+side[1].failed, side[0].attempted+side[1].attempted)
	if len(side[0].lat) == 0 || len(side[1].lat) == 0 {
		return errors.New("a paired segment completed no request")
	}
	rate := func(l load) float64 { return float64(len(l.lat)) / l.elapsed.Seconds() }
	res.set("trace.observed_p50_overhead_pct", 100*(median(side[1].lat)/median(side[0].lat)-1))
	res.set("trace.observed_rps_loss_pct", 100*(1-rate(side[1])/rate(side[0])))
	res.notef("observed mode: %.0f req/s and p50 %.3f ms against plain %.0f req/s and p50 %.3f ms, %d alternating %v segments each",
		rate(side[1]), median(side[1].lat), rate(side[0]), median(side[0].lat), observedPairs, observedSegment)
	return nil
}

// buildWarehouse writes the served warehouse: the stream loop's
// bootstrap and churn epochs on the 2000-AS table.
func buildWarehouse(ctx context.Context, seed int64, dir string) error {
	loop, ch, err := openLiveLoop(ctx, seed, dir)
	if err != nil {
		return err
	}
	for loop.store.Len() < serveEpochs {
		if _, err := loop.step(ctx, ch.next(), nil); err != nil {
			return err
		}
	}
	return nil
}

func fetchETag(url string) string {
	client := &http.Client{Timeout: 5 * time.Second, Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	resp, err := client.Get(url)
	if err != nil {
		return ""
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.Header.Get("Etag")
}

// serveLayers reports the serve workload's per-layer metrics, timed in
// process after the measured phase while the daemon idles.
func serveLayers(res *result, ref *reference, seed int64, lat, traced, untraced []float64) {
	m := newMixer(seed, 100, ref.asns, ref.snapETag, ref.historyETag)
	for _, hk := range handlerKinds {
		t := make([]float64, 0, inprocPerKind)
		for i := 0; i < inprocPerKind; i++ {
			t = append(t, timeInProcess(ref.handler, request{kind: hk.kind, path: m.path(hk.kind)}))
		}
		res.set("apiserver.handler_us."+hk.name, median(t))
	}

	// The whole mix in process, alternating the plain stack with one
	// whose Config.Tracer is set.
	tracedStack := ref.stack(trace.New(trace.Options{}))
	plain := make([]float64, 0, inprocMix/2)
	withTracer := make([]float64, 0, inprocMix/2)
	for i := 0; i < inprocMix; i++ {
		req := m.next()
		if i%2 == 0 {
			plain = append(plain, timeInProcess(ref.handler, req))
		} else {
			withTracer = append(withTracer, timeInProcess(tracedStack, req))
		}
	}
	res.set("net.overhead_us", 1000*median(lat)-median(plain))
	res.set("trace.request_overhead_us", median(withTracer)-median(plain))
	if len(traced) > 0 && len(untraced) > 0 {
		res.set("trace.op_overhead_pct", 100*(median(traced)/median(untraced)-1))
	}

	hist := ref.store.History()
	h := make([]float64, 0, inprocPerKind)
	for i := 0; i < inprocPerKind; i++ {
		asn, _ := strconv.ParseUint(m.pick(), 10, 32)
		t0 := time.Now()
		hist.ASN(uint32(asn))
		h = append(h, us(time.Since(t0)))
	}
	res.set("warehouse.history_us", median(h))
}
