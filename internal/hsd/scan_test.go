package hsd

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"rhsd/internal/telemetry"
)

// cancelAfter is a context whose Err reports context.Canceled from its
// (k+1)-th call on, so a scan can be stopped at an exact megatile
// boundary without racing a clock.
type cancelAfter struct {
	context.Context
	k     int32
	calls atomic.Int32
}

func (c *cancelAfter) Err() error {
	if c.calls.Add(1) > c.k {
		return context.Canceled
	}
	return nil
}

// TestScanCancelAtEveryMegatileBoundary stops a one-worker scan of the
// four-megatile quadLayout before each of its megatiles in turn. The
// stopped scan must return context.Canceled and no result, count no
// scanned megatiles, and leave exactly the k megatiles it finished in
// the cache. The next scan on the same model must equal a cold scan on a
// fresh model bit for bit, with those k megatiles served by the cache.
// Two workers under an already-cancelled context scan nothing and leave
// the next two-worker scan unchanged.
func TestScanCancelAtEveryMegatileBoundary(t *testing.T) {
	l, win := quadLayout(TinyConfig())
	req := ScanRequest{Layout: l, Window: win, Factor: 1}
	cold := parityModel(t).DetectLayoutMegatile(l, win, 1)

	for k := 0; k < 4; k++ {
		m := parityModel(t)
		m.SetScanWorkers(1)
		cache := NewDetCache(0)
		m.SetScanCache(cache)
		ins := NewInstruments(telemetry.NewRegistry())
		m.SetInstruments(ins)

		res, err := m.Scan(&cancelAfter{Context: context.Background(), k: int32(k)}, req)
		if !errors.Is(err, context.Canceled) || res != nil {
			t.Fatalf("cancel before megatile %d: res = %v, err = %v, want no result and context.Canceled", k, res, err)
		}
		if n := ins.MegatilesScanned.Value(); n != 0 {
			t.Fatalf("cancel before megatile %d: %d megatiles counted as scanned, want 0", k, n)
		}
		if st := cache.Stats(); st.Misses != int64(k) || st.Hits != 0 {
			t.Fatalf("cancel before megatile %d: cache %+v, want exactly %d misses", k, st, k)
		}

		res, err = m.Scan(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		assertSameDetections(t, fmt.Sprintf("scan after a cancel before megatile %d", k), cold, res.Detections)
		if st := cache.Stats(); st.Hits != int64(k) || st.Misses != 4 {
			t.Fatalf("scan after a cancel before megatile %d: cache %+v, want %d hits and 4 misses", k, st, k)
		}
	}

	m := parityModel(t)
	want := detectAtWorkers(2, func() []Detection { return m.DetectLayoutMegatile(l, win, 1) })
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var res *ScanResult
	err := detectAtWorkers(2, func() (err error) {
		res, err = m.Scan(ctx, req)
		return err
	})
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("cancelled two-worker scan: res = %v, err = %v, want no result and context.Canceled", res, err)
	}
	got := detectAtWorkers(2, func() []Detection { return m.DetectLayoutMegatile(l, win, 1) })
	assertSameDetections(t, "two-worker scan after a cancelled one", want, got)
}
