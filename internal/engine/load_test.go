package engine

import (
	"bytes"
	"context"
	"math/rand"
	"sync"
	"testing"

	"branchalign/internal/interp"
	"branchalign/internal/ir"
	"branchalign/internal/machine"
	"branchalign/internal/testutil"
)

func randData(n int, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int64, n)
	for i := range out {
		out[i] = rng.Int63n(400) - 50
	}
	return out
}

func profileJSON(t *testing.T, prof *interp.Profile) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := prof.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestLoadKeySeparation pins the profile-cache key: every input a
// measured run consumes separates entries, and spellings that resolve
// to the same run share one.
func TestLoadKeySeparation(t *testing.T) {
	e := New(Options{})
	load := func(p Program) (*ir.Module, *interp.Profile) {
		t.Helper()
		mod, prof, err := e.Load(p, false)
		if err != nil {
			t.Fatal(err)
		}
		return mod, prof
	}
	counts := func(hits, misses int64) {
		t.Helper()
		st := e.Stats()
		if st.ProfileCacheHits != hits || st.ProfileCacheMisses != misses {
			t.Fatalf("profile cache hits/misses %d/%d, want %d/%d",
				st.ProfileCacheHits, st.ProfileCacheMisses, hits, misses)
		}
	}

	src := testutil.BranchySource
	dataA, dataB := randData(400, 7), randData(400, 8)
	n := int64(200)
	modA, profA := load(Program{Source: src, Data: dataA})
	_, profB := load(Program{Source: src, Data: dataB})
	_, profN := load(Program{Source: src, Data: dataA, N: &n})
	counts(0, 3)
	if bytes.Equal(profileJSON(t, profA), profileJSON(t, profB)) {
		t.Error("different data gave the same profile")
	}
	if bytes.Equal(profileJSON(t, profA), profileJSON(t, profN)) {
		t.Error("different n gave the same profile")
	}
	// n defaults to len(data): spelling it out is the same run.
	full := int64(len(dataA))
	if mod, prof := load(Program{Source: src, Data: dataA, N: &full}); mod != modA || prof != profA {
		t.Error("explicit n = len(data) missed the entry of the implicit one")
	}
	counts(1, 3)

	mod, prof := load(Program{Bench: "compress"})
	for _, p := range []Program{{Bench: "com"}, {Bench: "compress", DataSet: "txt"}, {Bench: "com", DataSet: "txt"}} {
		if m, pr := load(p); m != mod || pr != prof {
			t.Errorf("%+v did not share the entry of compress/txt", p)
		}
	}
	counts(4, 4)
	if m, _ := load(Program{Bench: "compress", DataSet: "mov"}); m == mod {
		t.Error("compress/mov shared the entry of compress/txt")
	}
	counts(4, 5)
}

// TestLoadBypassesCache: static and recorded-profile loads never touch
// the profile cache.
func TestLoadBypassesCache(t *testing.T) {
	e := New(Options{})
	mod, prof, err := e.Load(Program{Source: testutil.BranchySource}, true)
	if err != nil || mod == nil || prof != nil {
		t.Fatalf("static load: mod %v prof %v err %v", mod != nil, prof, err)
	}
	_, measured := branchy(t)
	rec := Program{Source: testutil.BranchySource, Recorded: profileJSON(t, measured)}
	for range 2 {
		if _, prof, err := e.Load(rec, false); err != nil || prof == nil {
			t.Fatalf("recorded load: prof %v err %v", prof != nil, err)
		}
	}
	if st := e.Stats(); st.ProfileCacheHits != 0 || st.ProfileCacheMisses != 0 || e.profiles.len() != 0 {
		t.Errorf("bypassing loads touched the profile cache: %d hits, %d misses, %d entries",
			st.ProfileCacheHits, st.ProfileCacheMisses, e.profiles.len())
	}
	if _, _, err := e.Load(rec, true); err == nil {
		t.Error("static load with a recorded profile accepted")
	}
}

// TestLoadDisabledCache: negative CacheEntries disables the profile
// cache as it does the result cache.
func TestLoadDisabledCache(t *testing.T) {
	e := New(Options{CacheEntries: -1})
	p := Program{Source: testutil.BranchySource, Data: randData(50, 1)}
	m1, _, err := e.Load(p, false)
	if err != nil {
		t.Fatal(err)
	}
	m2, _, err := e.Load(p, false)
	if err != nil {
		t.Fatal(err)
	}
	if m1 == m2 || e.Stats().ProfileCacheHits != 0 {
		t.Error("disabled profile cache served a hit")
	}
}

// TestLoadConcurrentShare: concurrent identical loads all return one
// module and profile, which concurrent solves then read together.
func TestLoadConcurrentShare(t *testing.T) {
	e := New(Options{Workers: 4})
	p := Program{Source: testutil.BranchySource, Data: randData(400, 7)}
	const n = 8
	mods := make([]*ir.Module, n)
	profs := make([]*interp.Profile, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mod, prof, err := e.Load(p, false)
			if err != nil {
				t.Error(err)
				return
			}
			mods[i], profs[i] = mod, prof
			// Distinct seeds, so the solves run instead of coalescing.
			if _, err := e.Align(context.Background(), Request{
				Module: mod, Profile: prof, Model: machine.Alpha21164(), Seed: int64(i),
			}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if mods[i] != mods[0] || profs[i] != profs[0] {
			t.Fatalf("load %d returned its own module or profile", i)
		}
	}
	if st := e.Stats(); st.ProfileCacheHits+st.ProfileCacheMisses != n {
		t.Errorf("profile cache hits+misses = %d, want %d", st.ProfileCacheHits+st.ProfileCacheMisses, n)
	}
}
