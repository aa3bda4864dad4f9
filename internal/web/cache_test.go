package web

import (
	"encoding/json"
	"net/http"
	"reflect"
	"sort"
	"sync"
	"testing"

	"github.com/gables-model/gables/internal/simcache"
)

func TestPageCacheMatchesDirect(t *testing.T) {
	s := newServer(Options{})
	p := paramsFor(t, twoIP, "")
	direct, err := twoIP.evaluate(p)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := s.evaluatePage(twoIP, p)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := s.evaluatePage(twoIP, p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct, cold) {
		t.Error("cold cached evaluation differs from direct")
	}
	if !reflect.DeepEqual(direct, warm) {
		t.Error("warm cached evaluation differs from direct")
	}
	if st := s.pages.Stats(); st.Misses != 1 || st.Hits != 1 {
		t.Errorf("stats = %+v, want 1 miss then 1 hit", st)
	}

	// Returned pages are private copies: mutating one must not poison
	// later hits.
	warm.Attainable = "poisoned"
	if len(warm.Terms) > 0 {
		warm.Terms[0].Component = "poisoned"
	}
	again, err := s.evaluatePage(twoIP, p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct, again) {
		t.Error("cache entry was mutated through a returned page")
	}
}

func TestPageCacheDistinguishesPages(t *testing.T) {
	s := newServer(Options{})
	for _, pg := range pages {
		if _, err := s.evaluatePage(pg, paramsFor(t, pg, "")); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.pages.Stats(); st.Misses != 2 || st.Hits != 0 || st.Entries != 2 {
		t.Errorf("stats = %+v, want two distinct misses (scoped keys)", st)
	}
}

func TestPageCacheErrorsNotCached(t *testing.T) {
	s := newServer(Options{})
	bad := paramsFor(t, twoIP, "f=5")
	for i := 0; i < 2; i++ {
		if _, err := s.evaluatePage(twoIP, bad); err == nil {
			t.Fatal("invalid params must error")
		}
	}
	if st := s.pages.Stats(); st.Entries != 0 || st.Misses != 2 {
		t.Errorf("stats = %+v, want errors recomputed and never stored", st)
	}
}

// webStats reads the web_eval block of h's /stats.
func webStats(t *testing.T, h http.Handler) simcache.Stats {
	t.Helper()
	rec := serve(h, http.MethodGet, "/stats", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("/stats: status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("/stats: content type %q", ct)
	}
	var snapshot struct {
		Web       simcache.Stats   `json:"web_eval"`
		Surrogate *json.RawMessage `json:"surrogate"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &snapshot); err != nil {
		t.Fatal(err)
	}
	if snapshot.Surrogate == nil {
		t.Error("stats payload carries no surrogate section")
	}
	return snapshot.Web
}

// TestNoSimcacheSurface pins that nothing outside the process reads or
// writes the simulation cache: GET and PUT on /simcache/<key> are 404s
// that leave the sim-run counters untouched, and /stats reports exactly
// the counters of the cache's tiers (memory, coalesce, disk, compute).
func TestNoSimcacheSurface(t *testing.T) {
	h := NewHandler(Options{})
	before := simcache.DefaultStats()
	for _, method := range []string{http.MethodGet, http.MethodPut} {
		if rec := serve(h, method, "/simcache/0123abcd", "{}"); rec.Code != http.StatusNotFound {
			t.Errorf("%s /simcache/0123abcd: status %d, want 404", method, rec.Code)
		}
	}
	if after := simcache.DefaultStats(); after != before {
		t.Errorf("sim-run stats moved from %+v to %+v", before, after)
	}
	var snapshot struct {
		Sim map[string]int64 `json:"sim_runs"`
	}
	if err := json.Unmarshal(serve(h, http.MethodGet, "/stats", "").Body.Bytes(), &snapshot); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range snapshot.Sim {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if want := []string{"bypassed", "coalesced", "disk_hits", "entries", "evictions", "hits", "misses"}; !reflect.DeepEqual(keys, want) {
		t.Errorf("/stats sim_runs keys = %v, want %v", keys, want)
	}
}

func TestStatsEndpoint(t *testing.T) {
	h := Handler()
	// Two identical submissions: one miss, one hit.
	for i := 0; i < 2; i++ {
		serve(h, http.MethodGet, "/", "")
	}
	if st := webStats(t, h); st.Misses != 1 || st.Hits != 1 || st.Entries != 1 {
		t.Errorf("web stats = %+v, want 1 miss + 1 hit", st)
	}

	// The surrogate section reports in-memory fits: no artifact loads,
	// and no fingerprint per model.
	if rec := serve(h, http.MethodGet, "/eval?backend=surrogate&f=0.5&fpw=512", ""); rec.Code != http.StatusOK {
		t.Fatalf("surrogate /eval: status %d", rec.Code)
	}
	var snapshot struct {
		Surrogate map[string]json.RawMessage `json:"surrogate"`
	}
	if err := json.Unmarshal(serve(h, http.MethodGet, "/stats", "").Body.Bytes(), &snapshot); err != nil {
		t.Fatal(err)
	}
	if got, want := sortedKeys(snapshot.Surrogate), []string{"calibrations", "fallbacks", "fast_answers", "models"}; !reflect.DeepEqual(got, want) {
		t.Errorf("/stats surrogate keys = %v, want %v", got, want)
	}
	var models []map[string]json.RawMessage
	if err := json.Unmarshal(snapshot.Surrogate["models"], &models); err != nil || len(models) == 0 {
		t.Fatalf("/stats surrogate models = %s (%v), want at least one", snapshot.Surrogate["models"], err)
	}
	for _, m := range models {
		if got, want := sortedKeys(m), []string{"bpeak", "buckets", "chip", "ips", "ppeak", "residual_max", "residual_mean"}; !reflect.DeepEqual(got, want) {
			t.Errorf("/stats surrogate model keys = %v, want %v", got, want)
		}
	}
}

func sortedKeys(m map[string]json.RawMessage) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestPageCacheNotShared: each handler owns its page cache, so pages
// rendered by one never show in another's counters.
func TestPageCacheNotShared(t *testing.T) {
	a, b := Handler(), Handler()
	serve(a, http.MethodGet, "/", "")
	serve(a, http.MethodGet, "/three", "")
	if st := webStats(t, a); st.Misses != 2 || st.Entries != 2 {
		t.Errorf("first handler: %+v, want 2 misses and 2 entries", st)
	}
	if st := webStats(t, b); st != (simcache.Stats{}) {
		t.Errorf("second handler: %+v, want untouched counters", st)
	}
	serve(b, http.MethodGet, "/", "")
	if st := webStats(t, b); st.Misses != 1 || st.Hits != 0 {
		t.Errorf("second handler: %+v, want its own miss, not the first's entry", st)
	}
}

// TestPageCacheConcurrentIdentical: identical requests racing on one
// server get identical bytes, and the singleflight renders the page once.
func TestPageCacheConcurrentIdentical(t *testing.T) {
	const n = 8
	h := Handler()
	bodies := make([]string, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			rec := serve(h, http.MethodGet, "/three?f1=0.9&f2=0.1", "")
			if rec.Code == http.StatusOK {
				bodies[i] = rec.Body.String()
			}
		}(i)
	}
	close(start)
	wg.Wait()
	for i, body := range bodies {
		if body == "" || body != bodies[0] {
			t.Fatalf("request %d: body differs from request 0's", i)
		}
	}
	st := webStats(t, h)
	if st.Misses != 1 || st.Hits+st.Coalesced != n-1 || st.Entries != 1 {
		t.Errorf("stats = %+v, want 1 miss and %d hits or coalesced waits", st, n-1)
	}
}
