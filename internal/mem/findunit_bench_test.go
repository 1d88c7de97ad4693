package mem

import (
	"fmt"
	"testing"
)

// BenchmarkFindUnit measures the unit-lookup path itself — the operation
// every checked memory access performs — across the three table shapes that
// dominate the paper's workloads: a heap full of small blocks (Sendmail,
// Mutt), a deep stack of small frames (Pine's recursive parsing), and a
// large global segment (Apache's tables). Each shape is measured through
// the raw table search (Uncached) and through a one-entry LookupCache the
// way the interpreter drives it (Cached: hot repeated hits on one unit,
// the inline-cache best case the access-site caches are built around).
func BenchmarkFindUnit(b *testing.B) {
	b.Run("HeapHeavy", func(b *testing.B) {
		as := New()
		addrs := make([]uint64, 0, 256)
		for i := 0; i < 256; i++ {
			u, f := as.Malloc(32)
			if f != nil {
				b.Fatal(f)
			}
			addrs = append(addrs, u.Base+7)
		}
		benchLookup(b, as, addrs)
	})
	b.Run("StackDeep", func(b *testing.B) {
		as := New()
		addrs := make([]uint64, 0, 64*4)
		for d := 0; d < 64; d++ {
			locals := make([]LocalSpec, 4)
			for l := range locals {
				locals[l] = LocalSpec{Name: fmt.Sprintf("v%d", l), Off: uint64(l) * 16, Size: 16}
			}
			f, fault := as.PushFrame("fn", 64, locals)
			if fault != nil {
				b.Fatal(fault)
			}
			for i := len(f.units) - 1; i >= 1; i-- {
				addrs = append(addrs, f.units[i].Base+3)
			}
		}
		benchLookup(b, as, addrs)
	})
	b.Run("GlobalHeavy", func(b *testing.B) {
		as := New()
		addrs := make([]uint64, 0, 256)
		for i := 0; i < 256; i++ {
			u := as.AllocGlobal(fmt.Sprintf("g%d", i), 64)
			addrs = append(addrs, u.Base+11)
		}
		benchLookup(b, as, addrs)
	})
}

// benchLookup runs the Uncached/Cached pair over the prepared addresses.
// Uncached cycles through every address (the pre-PR worst case: each access
// pays a full table search); Cached replays the same cycle through a
// LookupCache and then hammers a single address (a 100% hit rate, the
// steady state of a hot access site).
func benchLookup(b *testing.B, as *AddressSpace, addrs []uint64) {
	for _, addr := range addrs {
		if as.FindUnit(addr) == nil {
			b.Fatalf("address 0x%x not mapped", addr)
		}
	}
	b.Run("Uncached", func(b *testing.B) {
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			if as.FindUnit(addrs[n%len(addrs)]) == nil {
				b.Fatal("lookup failed")
			}
		}
	})
	b.Run("CachedCycle", func(b *testing.B) {
		var c LookupCache
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			if as.FindUnitCached(addrs[n%len(addrs)], &c) == nil {
				b.Fatal("lookup failed")
			}
		}
	})
	b.Run("CachedHit", func(b *testing.B) {
		var c LookupCache
		addr := addrs[len(addrs)/2]
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			if as.FindUnitCached(addr, &c) == nil {
				b.Fatal("lookup failed")
			}
		}
	})
}
