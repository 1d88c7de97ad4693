package mem

import (
	"maps"
	"testing"
)

// FuzzShadow checks the provenance shadow (one inline entry, a map from
// the second offset on) against a plain map: random SetShadow, GetShadow,
// clearShadowRange, checkpoint, Commit, Rewind and frame-pop sequences
// must read back exactly what the model holds, at every offset. A
// recyclable frame is pushed and popped along the way, so a recycled
// local's shadow is checked against its own model too: empty on every
// push, whatever the previous frame stored.
//
// Each input byte triple is one operation: an opcode, an offset and an
// argument.
func FuzzShadow(f *testing.F) {
	f.Add([]byte{0, 8, 1, 0, 16, 2, 2, 10, 3})
	f.Add([]byte{0, 0, 1, 3, 0, 0, 0, 0, 2, 0, 8, 1, 4, 0, 0, 1, 8, 0})
	f.Add([]byte{0, 24, 1, 0, 32, 2, 0, 40, 3, 3, 0, 0, 2, 30, 4, 0, 24, 0, 5, 0, 0})
	f.Add([]byte{6, 0, 0, 7, 0, 1, 7, 8, 2, 6, 0, 0, 6, 0, 0, 7, 8, 3, 3, 0, 0, 7, 0, 1, 5, 0, 0, 6, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const size = 64
		as := New()
		targets := []*Unit{nil, as.AllocGlobal("a", 8), as.AllocGlobal("b", 8), as.AllocGlobal("c", 8)}
		u := as.AllocGlobal("u", size)
		model := map[uint64]*Unit{}
		var ckpt *Checkpoint
		var saved map[uint64]*Unit
		spec := &FrameSpec{Canary: "fn", Size: 16, Reusable: true,
			Locals: []LocalSpec{{Name: "p", Off: 0, Size: 16}}}
		var fr *Frame // the live recyclable frame, if any
		var fmodel, fsaved map[uint64]*Unit
		var lastID UnitID
		set := func(off uint64, prov *Unit) {
			if prov == nil {
				delete(model, off)
			} else {
				model[off] = prov
			}
		}
		for i := 0; i+2 < len(ops); i += 3 {
			off, arg := uint64(ops[i+1])%size, ops[i+2]
			switch ops[i] % 8 {
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
					saved, fsaved = maps.Clone(model), maps.Clone(fmodel)
				}
			case 4:
				if ckpt != nil {
					as.Commit(ckpt)
					ckpt, saved = nil, nil
				}
			case 5:
				if ckpt != nil {
					as.Rewind(ckpt)
					model, fmodel = saved, fsaved
					ckpt, saved, fsaved = nil, nil, nil
				}
			case 6: // push or pop the recyclable frame, outside checkpoints
				if ckpt != nil {
					break
				}
				if fr != nil {
					if fault := as.PopFrame(fr); fault != nil {
						t.Fatal(fault)
					}
					fr, fmodel = nil, nil
					break
				}
				var fault *Fault
				if fr, fault = as.PushFrame(spec); fault != nil {
					t.Fatal(fault)
				}
				if l := fr.LocalAt(0); l.ID <= lastID || l.Dead {
					t.Fatalf("op %d: pushed local ID %d (last %d), dead %v", i/3, l.ID, lastID, l.Dead)
				}
				lastID = fr.LocalAt(0).ID
				fmodel = map[uint64]*Unit{}
			case 7: // pointer store into the frame's local
				if fr == nil {
					break
				}
				l := fr.LocalAt(0)
				as.NoteMutation(l)
				foff := off % 16
				prov := targets[int(arg)%len(targets)]
				l.SetShadow(foff, prov)
				if prov == nil {
					delete(fmodel, foff)
				} else {
					fmodel[foff] = prov
				}
			}
			for a := uint64(0); a < size; a++ {
				if got, want := u.GetShadow(a), model[a]; got != want {
					t.Fatalf("op %d: shadow[%d] = %v, want %v", i/3, a, got, want)
				}
			}
			for a := uint64(0); fr != nil && a < 16; a++ {
				if got, want := fr.LocalAt(0).GetShadow(a), fmodel[a]; got != want {
					t.Fatalf("op %d: frame shadow[%d] = %v, want %v", i/3, a, got, want)
				}
			}
		}
		if fr != nil {
			if ckpt != nil {
				as.Commit(ckpt)
			}
			as.PopFrame(fr)
		}
		// A popped frame's units read no provenance.
		fr, fault := as.PushFrame(&FrameSpec{Canary: "fn", Size: 16, Locals: []LocalSpec{{Name: "p", Off: 0, Size: 16}}})
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
