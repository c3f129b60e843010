package main

import (
	"bytes"
	"testing"
)

// requestBytes renders the first n requests of both clients under a
// seed: the whole of what the service sees of serve-mixed.
func requestBytes(seed uint64, n int) []byte {
	c := &runCtx{seed: seed}
	hot := hotGrid(c)
	schedule := mixedSchedule(seed, n)
	var out bytes.Buffer
	for client := 0; client < maxClients; client++ {
		for k, kind := range schedule {
			out.WriteByte(kind)
			out.Write(sweepBody(mixedGrid(seed, kind, k, client, hot)))
			out.WriteByte('\n')
		}
	}
	return out.Bytes()
}

func TestMixedScheduleIsASeedFunction(t *testing.T) {
	a, again, b := requestBytes(1, 2000), requestBytes(1, 2000), requestBytes(2, 2000)
	if !bytes.Equal(a, again) {
		t.Error("one seed gave two different request streams")
	}
	if bytes.Equal(a, b) {
		t.Error("two seeds gave the same request stream")
	}
}

func TestMixedScheduleShares(t *testing.T) {
	counts := map[byte]int{}
	for _, k := range mixedSchedule(7, scheduleLen) {
		counts[k]++
	}
	for kind, share := range map[byte]int{kindHot: hotShare, kindDup: dupShare, kindCold: 100 - hotShare - dupShare} {
		got := 100 * float64(counts[kind]) / scheduleLen
		if got < float64(share)-1 || got > float64(share)+1 {
			t.Errorf("kind %c is %.1f%% of the schedule, want about %d%%", kind, got, share)
		}
	}
}

// A dup grid is the same for both clients at one index; a cold grid is
// each client's own; no two of them share a scenario seed.
func TestMixedGridsNeverCollide(t *testing.T) {
	hot := hotGrid(&runCtx{seed: 3})
	seen := map[uint64]string{}
	claim := func(who string, seeds []uint64) {
		for _, s := range seeds {
			if prev, ok := seen[s]; ok {
				t.Fatalf("scenario seed %d used by %s and %s", s, prev, who)
			}
			seen[s] = who
		}
	}
	claim("hot", hot.Seeds)
	for k := 0; k < 100; k++ {
		d0, d1 := mixedGrid(3, kindDup, k, 0, hot), mixedGrid(3, kindDup, k, 1, hot)
		if !bytes.Equal(sweepBody(d0), sweepBody(d1)) {
			t.Fatalf("dup grid at index %d differs between clients", k)
		}
		claim("dup", d0.Seeds)
		claim("cold/0", mixedGrid(3, kindCold, k, 0, hot).Seeds)
		claim("cold/1", mixedGrid(3, kindCold, k, 1, hot).Seeds)
	}
}
