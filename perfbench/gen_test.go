package main

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"branchalign/internal/check"
	"branchalign/internal/staticprof"
)

func TestGenModuleDeterministic(t *testing.T) {
	for _, seed := range []int64{0, 1, 12345} {
		for i := 0; i < 3; i++ {
			a, err := genModule(seed, i)
			if err != nil {
				t.Fatal(err)
			}
			b, err := genModule(seed, i)
			if err != nil {
				t.Fatal(err)
			}
			if a != b {
				t.Fatalf("seed %d index %d: two calls gave different sources", seed, i)
			}
		}
	}
	// Pin the bytes of one module, so the workload's inputs cannot drift
	// silently between commits (math/rand's seeded source is stable).
	src, err := genModule(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprintf("%x", sha256.Sum256([]byte(src)))[:16], genPin; got != want {
		t.Errorf("genModule(1, 0) digest %s, pinned %s: the cold-static inputs changed", got, want)
	}
}

const genPin = "f296df3ce61e7250"

func TestGenModulesCompileAndStaySized(t *testing.T) {
	seen := map[string]bool{}
	for seed := int64(0); seed < 5; seed++ {
		for i := 0; i < 20; i++ {
			src, err := genModule(seed, i)
			if err != nil {
				t.Fatal(err)
			}
			if seen[src] {
				t.Errorf("seed %d index %d repeats an earlier module", seed, i)
			}
			seen[src] = true
			mod, err := compileSource(src)
			if err != nil {
				t.Fatalf("seed %d index %d: %v", seed, i, err)
			}
			total, largest := moduleSize(mod)
			if total < genMinBlocks || total > genMaxBlocks || largest < genMinLargest || largest > genMaxLargest {
				t.Errorf("seed %d index %d: %d blocks, largest function %d", seed, i, total, largest)
			}
			prof, _ := staticprof.Estimate(mod)
			if rep := check.Flow(mod, prof); !rep.OK() {
				t.Errorf("seed %d index %d: static profile fails flow check: %v", seed, i, rep.Err())
			}
		}
	}
}
