// Code generated by focc -emit-go; DO NOT EDIT.
//
// Generated-Go execution engine for source hash efaa455391b3c2017df71edc53b302bf42705f1825b27631f0d5e92fa47e3f3a.
package gencorpus

import (
	"encoding/binary"

	"focc/internal/cc/token"
	"focc/internal/cc/types"
	"focc/internal/core"
	"focc/internal/interp"
	"focc/internal/mem"
)

var corpus_sieve_pos = []token.Pos{
	{File: "t.c", Line: 6, Col: 8},
	{File: "t.c", Line: 7, Col: 16},
	{File: "t.c", Line: 8, Col: 16},
	{File: "t.c", Line: 11, Col: 14},
	{File: "t.c", Line: 11, Col: 10},
	{File: "t.c", Line: 11, Col: 21},
	{File: "t.c", Line: 12, Col: 17},
	{File: "t.c", Line: 11, Col: 31},
}

var corpus_sieve_t0 *types.Type

var corpus_sieve_spec_main = &mem.FrameSpec{Canary: "canary:main", Size: 12, Reusable: true, Locals: []mem.LocalSpec{
	{Name: "i (main)", Off: 0, Size: 4},
	{Name: "j (main)", Off: 4, Size: 4},
	{Name: "count (main)", Off: 8, Size: 4},
}}

var corpus_sieve_prog *interp.GenProgram

func init() {
	corpus_sieve_t0 = types.PointerTo(types.VoidType)
	corpus_sieve_prog = &interp.GenProgram{
		Hash:     "efaa455391b3c2017df71edc53b302bf42705f1825b27631f0d5e92fa47e3f3a",
		NumSites: 0,
		Builtins: []string{"memset"},
		Funcs: map[string]interp.GenFn{
			"main": corpus_sieve_f_main,
		},
	}
	interp.RegisterGenerated(corpus_sieve_prog)
}

func corpus_sieve_f_main(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 0 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "main", len(args), 0)
	}
	f := m.GenPushFrame(corpus_sieve_spec_main)
	ret := m.GenExec(f, corpus_sieve_b_main)
	m.GenPopFrame(f)
	if ret.T == nil {
		return interp.Value{T: types.IntType}
	}
	var r interp.Value
	if ret.T == types.IntType {
		r = ret
	} else if ret.T != nil && ret.T.IsInteger() {
		r = interp.Value{T: types.IntType, I: int64(int32(ret.I))}
	} else {
		r = m.GenConvert(ret, types.IntType, pos)
	}
	return r
}

func corpus_sieve_b_main(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v0 := f.LocalAt(0)
		_ = v0
		v1 := f.LocalAt(1)
		_ = v1
		v2 := f.LocalAt(2)
		m.GenStoreRaw(v2, 0, types.IntType, (interp.Value{T: types.IntType, I: 0}))
	}
	{
		m.GenStep()
		m.GenStep()
		v3 := m.GenArgs(3)
		v4 := m.GenGlobal(0)
		v5 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v4.Base, Prov: v4}}
		v3[0] = v5
		v3[1] = (interp.Value{T: types.IntType, I: 0})
		v3[2] = (interp.Value{T: types.ULongType, I: 1000})
		v6 := m.GenBuiltin(0, "memset", corpus_sieve_pos[0])(m, corpus_sieve_pos[0], v3)
		m.GenPutArgs(v3)
		var v7 interp.Value
		if v6.T == corpus_sieve_t0 {
			v7 = v6
		} else if v6.T != nil && v6.T.IsPointer() {
			v7 = interp.Value{T: corpus_sieve_t0, Ptr: v6.Ptr}
		} else {
			v7 = m.GenConvert(v6, corpus_sieve_t0, corpus_sieve_pos[0])
		}
		_ = v7
	}
	{
		m.GenStep()
		{
			m.GenStep()
			v8 := f.LocalAt(0)
			m.GenStoreRaw(v8, 0, types.IntType, (interp.Value{T: types.IntType, I: 2}))
			_ = (interp.Value{T: types.IntType, I: 2})
		}
		for {
			v9 := f.LocalAt(0)
			m.GenChargeAccess()
			v10 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v9.Data[0:])))}
			var v11 interp.Value
			if v10.T == types.IntType {
				if v10.I < 1000 {
					v11 = interp.Value{T: types.IntType, I: 1}
				} else {
					v11 = interp.Value{T: types.IntType, I: 0}
				}
			} else {
				v11 = m.GenBinaryOp(token.Lt, v10, (interp.Value{T: types.IntType, I: 1000}), types.IntType, corpus_sieve_pos[1])
			}
			if !v11.Truthy() {
				break
			}
			m.GenStep()
			{
				m.GenStep()
				{
					m.GenStep()
					v12 := m.GenGlobal(0)
					v13 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v12.Base, Prov: v12}}
					v14 := f.LocalAt(0)
					m.GenChargeAccess()
					v15 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v14.Data[0:])))}
					v16 := core.Pointer{Addr: v13.Ptr.Addr + uint64(v15.I)*1, Prov: v13.Ptr.Prov}
					v17 := m.GenLoadValue(v16, types.CharType, corpus_sieve_pos[2], -1, 0)
					if v17.Truthy() {
						{
							m.GenStep()
							if interp.GenLive {
								goto c0_cont
							}
						}
					}
				}
				{
					m.GenStep()
					v18 := f.LocalAt(2)
					m.GenChargeAccess()
					v19 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v18.Data[0:])))}
					v20 := interp.Value{T: v19.T, I: int64(int32(v19.I + 1))}
					m.GenStoreRaw(v18, 0, types.IntType, v20)
					_ = v19
				}
				{
					m.GenStep()
					{
						m.GenStep()
						v21 := f.LocalAt(0)
						m.GenChargeAccess()
						v22 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v21.Data[0:])))}
						var v23 interp.Value
						if v22.T == types.IntType {
							v23 = interp.Value{T: types.IntType, I: int64(int32(v22.I * 2))}
						} else {
							v23 = m.GenBinaryOp(token.Star, v22, (interp.Value{T: types.IntType, I: 2}), types.IntType, corpus_sieve_pos[3])
						}
						v24 := f.LocalAt(1)
						var v25 interp.Value
						if v23.T == types.IntType {
							v25 = v23
						} else if v23.T != nil && v23.T.IsInteger() {
							v25 = interp.Value{T: types.IntType, I: int64(int32(v23.I))}
						} else {
							v25 = m.GenConvert(v23, types.IntType, corpus_sieve_pos[4])
						}
						m.GenStoreRaw(v24, 0, types.IntType, v25)
						_ = v25
					}
					for {
						v26 := f.LocalAt(1)
						m.GenChargeAccess()
						v27 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v26.Data[0:])))}
						var v28 interp.Value
						if v27.T == types.IntType {
							if v27.I < 1000 {
								v28 = interp.Value{T: types.IntType, I: 1}
							} else {
								v28 = interp.Value{T: types.IntType, I: 0}
							}
						} else {
							v28 = m.GenBinaryOp(token.Lt, v27, (interp.Value{T: types.IntType, I: 1000}), types.IntType, corpus_sieve_pos[5])
						}
						if !v28.Truthy() {
							break
						}
						m.GenStep()
						{
							m.GenStep()
							v29 := m.GenGlobal(0)
							v30 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v29.Base, Prov: v29}}
							v31 := f.LocalAt(1)
							m.GenChargeAccess()
							v32 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v31.Data[0:])))}
							v33 := core.Pointer{Addr: v30.Ptr.Addr + uint64(v32.I)*1, Prov: v30.Ptr.Prov}
							m.GenStoreValue(v33, types.CharType, (interp.Value{T: types.CharType, I: 1}), corpus_sieve_pos[6])
							_ = (interp.Value{T: types.CharType, I: 1})
						}
						v34 := f.LocalAt(1)
						m.GenChargeAccess()
						v35 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v34.Data[0:])))}
						v36 := f.LocalAt(0)
						m.GenChargeAccess()
						v37 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v36.Data[0:])))}
						var v38 interp.Value
						if v35.T == types.IntType && v37.T == types.IntType {
							v38 = interp.Value{T: types.IntType, I: int64(int32(v35.I + v37.I))}
						} else {
							v38 = m.GenBinaryOp(token.Plus, v35, v37, types.IntType, corpus_sieve_pos[7])
						}
						var v39 interp.Value
						if v38.T == types.IntType {
							v39 = v38
						} else if v38.T != nil && v38.T.IsInteger() {
							v39 = interp.Value{T: types.IntType, I: int64(int32(v38.I))}
						} else {
							v39 = m.GenConvert(v38, types.IntType, corpus_sieve_pos[7])
						}
						m.GenStoreRaw(v34, 0, types.IntType, v39)
						_ = v39
					}
				}
			}
		c0_cont:
			;
			v40 := f.LocalAt(0)
			m.GenChargeAccess()
			v41 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v40.Data[0:])))}
			v42 := interp.Value{T: v41.T, I: int64(int32(v41.I + 1))}
			m.GenStoreRaw(v40, 0, types.IntType, v42)
			_ = v41
		}
	}
	{
		m.GenStep()
		v43 := f.LocalAt(2)
		m.GenChargeAccess()
		v44 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v43.Data[0:])))}
		ret = v44
		if interp.GenLive {
			return
		}
	}
	return
}
