package mem

import (
	"maps"
	"testing"
)

// FuzzShadow checks the provenance shadow (one inline entry, a map from
// the second offset on) against a plain map: random SetShadow, GetShadow,
// clearShadowRange, checkpoint, Commit, Rewind and frame-pop sequences
// must read back exactly what the model holds, at every offset.
//
// Each input byte triple is one operation: an opcode, an offset and an
// argument.
func FuzzShadow(f *testing.F) {
	f.Add([]byte{0, 8, 1, 0, 16, 2, 2, 10, 3})
	f.Add([]byte{0, 0, 1, 3, 0, 0, 0, 0, 2, 0, 8, 1, 4, 0, 0, 1, 8, 0})
	f.Add([]byte{0, 24, 1, 0, 32, 2, 0, 40, 3, 3, 0, 0, 2, 30, 4, 0, 24, 0, 5, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const size = 64
		as := New()
		targets := []*Unit{nil, as.AllocGlobal("a", 8), as.AllocGlobal("b", 8), as.AllocGlobal("c", 8)}
		u := as.AllocGlobal("u", size)
		model := map[uint64]*Unit{}
		var ckpt *Checkpoint
		var saved map[uint64]*Unit
		set := func(off uint64, prov *Unit) {
			if prov == nil {
				delete(model, off)
			} else {
				model[off] = prov
			}
		}
		for i := 0; i+2 < len(ops); i += 3 {
			off, arg := uint64(ops[i+1])%size, ops[i+2]
			switch ops[i] % 6 {
			case 0: // pointer store
				as.NoteMutation(u)
				prov := targets[int(arg)%len(targets)]
				u.SetShadow(off, prov)
				set(off, prov)
			case 1: // integer or byte-range store
				as.NoteMutation(u)
				n := uint64(arg)%size + 1
				u.clearShadowRange(off, n)
				lo := uint64(0)
				if off >= 7 {
					lo = off - 7
				}
				for a := range model {
					if a >= lo && a < off+n {
						delete(model, a)
					}
				}
			case 2: // read (checked below for every offset)
			case 3:
				if ckpt == nil {
					ckpt = as.BeginCheckpoint()
					saved = maps.Clone(model)
				}
			case 4:
				if ckpt != nil {
					as.Commit(ckpt)
					ckpt, saved = nil, nil
				}
			case 5:
				if ckpt != nil {
					as.Rewind(ckpt)
					model = saved
					ckpt, saved = nil, nil
				}
			}
			for a := uint64(0); a < size; a++ {
				if got, want := u.GetShadow(a), model[a]; got != want {
					t.Fatalf("op %d: shadow[%d] = %v, want %v", i/3, a, got, want)
				}
			}
		}
		// A popped frame's units read no provenance.
		fr, fault := as.PushFrame("fn", 16, []LocalSpec{{Name: "p", Off: 0, Size: 16}})
		if fault != nil {
			t.Fatal(fault)
		}
		l := fr.LocalAt(0)
		l.SetShadow(0, u)
		l.SetShadow(8, u)
		if fault := as.PopFrame(fr); fault != nil {
			t.Fatal(fault)
		}
		if l.GetShadow(0) != nil || l.GetShadow(8) != nil || !l.Dead {
			t.Fatalf("popped local still live or holding provenance")
		}
	})
}
