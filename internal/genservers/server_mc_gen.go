// Code generated by focc -emit-go; DO NOT EDIT.
//
// Generated-Go execution engine for source hash 2a06aabe00a8faf0fb6dba070af7f21f74ebaca9c66f36f42f66f4303a0d566c.
package genservers

import (
	"encoding/binary"

	"focc/internal/cc/token"
	"focc/internal/cc/types"
	"focc/internal/core"
	"focc/internal/interp"
	"focc/internal/mem"
)

var server_mc_pos = []token.Pos{
	{File: "mc.c", Line: 28, Col: 16},
	{File: "mc.c", Line: 29, Col: 23},
	{File: "mc.c", Line: 29, Col: 6},
	{File: "mc.c", Line: 30, Col: 10},
	{File: "mc.c", Line: 32, Col: 9},
	{File: "mc.c", Line: 33, Col: 9},
	{File: "mc.c", Line: 34, Col: 17},
	{File: "mc.c", Line: 34, Col: 23},
	{File: "mc.c", Line: 37, Col: 10},
	{File: "mc.c", Line: 47, Col: 15},
	{File: "mc.c", Line: 47, Col: 10},
	{File: "mc.c", Line: 47, Col: 20},
	{File: "mc.c", Line: 49, Col: 10},
	{File: "mc.c", Line: 51, Col: 11},
	{File: "mc.c", Line: 51, Col: 24},
	{File: "mc.c", Line: 51, Col: 28},
	{File: "mc.c", Line: 52, Col: 9},
	{File: "mc.c", Line: 53, Col: 19},
	{File: "mc.c", Line: 53, Col: 13},
	{File: "mc.c", Line: 56, Col: 8},
	{File: "mc.c", Line: 58, Col: 9},
	{File: "mc.c", Line: 66, Col: 12},
	{File: "mc.c", Line: 66, Col: 16},
	{File: "mc.c", Line: 68, Col: 13},
	{File: "mc.c", Line: 68, Col: 17},
	{File: "mc.c", Line: 68, Col: 31},
	{File: "mc.c", Line: 68, Col: 35},
	{File: "mc.c", Line: 69, Col: 10},
	{File: "mc.c", Line: 70, Col: 20},
	{File: "mc.c", Line: 70, Col: 15},
	{File: "mc.c", Line: 73, Col: 10},
	{File: "mc.c", Line: 73, Col: 14},
	{File: "mc.c", Line: 75, Col: 11},
	{File: "mc.c", Line: 76, Col: 22},
	{File: "mc.c", Line: 76, Col: 6},
	{File: "mc.c", Line: 77, Col: 10},
	{File: "mc.c", Line: 90, Col: 11},
	{File: "mc.c", Line: 92, Col: 13},
	{File: "mc.c", Line: 93, Col: 12},
	{File: "mc.c", Line: 93, Col: 5},
	{File: "mc.c", Line: 94, Col: 9},
	{File: "mc.c", Line: 96, Col: 21},
	{File: "mc.c", Line: 96, Col: 5},
	{File: "mc.c", Line: 97, Col: 9},
	{File: "mc.c", Line: 99, Col: 17},
	{File: "mc.c", Line: 99, Col: 26},
	{File: "mc.c", Line: 100, Col: 14},
	{File: "mc.c", Line: 100, Col: 43},
	{File: "mc.c", Line: 100, Col: 22},
	{File: "mc.c", Line: 100, Col: 20},
	{File: "mc.c", Line: 100, Col: 8},
	{File: "mc.c", Line: 101, Col: 35},
	{File: "mc.c", Line: 101, Col: 9},
	{File: "mc.c", Line: 102, Col: 7},
	{File: "mc.c", Line: 104, Col: 12},
	{File: "mc.c", Line: 105, Col: 10},
	{File: "mc.c", Line: 116, Col: 13},
	{File: "mc.c", Line: 116, Col: 17},
	{File: "mc.c", Line: 117, Col: 16},
	{File: "mc.c", Line: 117, Col: 3},
	{File: "mc.c", Line: 118, Col: 9},
	{File: "mc.c", Line: 120, Col: 9},
	{File: "mc.c", Line: 121, Col: 34},
	{File: "mc.c", Line: 121, Col: 25},
	{File: "mc.c", Line: 122, Col: 14},
	{File: "mc.c", Line: 126, Col: 19},
	{File: "mc.c", Line: 126, Col: 10},
	{File: "mc.c", Line: 127, Col: 14},
	{File: "mc.c", Line: 131, Col: 9},
	{File: "mc.c", Line: 138, Col: 19},
	{File: "mc.c", Line: 138, Col: 55},
	{File: "mc.c", Line: 140, Col: 19},
	{File: "mc.c", Line: 140, Col: 49},
	{File: "mc.c", Line: 142, Col: 19},
	{File: "mc.c", Line: 150, Col: 19},
	{File: "mc.c", Line: 150, Col: 4},
	{File: "mc.c", Line: 151, Col: 8},
	{File: "mc.c", Line: 154, Col: 16},
	{File: "mc.c", Line: 155, Col: 23},
	{File: "mc.c", Line: 155, Col: 16},
	{File: "mc.c", Line: 156, Col: 12},
	{File: "mc.c", Line: 156, Col: 16},
	{File: "mc.c", Line: 157, Col: 17},
	{File: "mc.c", Line: 159, Col: 13},
	{File: "mc.c", Line: 160, Col: 10},
	{File: "mc.c", Line: 161, Col: 18},
	{File: "mc.c", Line: 166, Col: 19},
}

var server_mc_t0 *types.Type
var server_mc_t1 *types.Type

var server_mc_spec_mc_process_tgz_links = &mem.FrameSpec{Canary: "canary:mc_process_tgz_links", Size: 208, Reusable: false, Locals: []mem.LocalSpec{
	{Name: "nlinks (mc_process_tgz_links)", Off: 0, Size: 4},
	{Name: "i (mc_process_tgz_links)", Off: 4, Size: 4},
	{Name: "rc (mc_process_tgz_links)", Off: 8, Size: 4},
	{Name: "dangling (mc_process_tgz_links)", Off: 12, Size: 4},
	{Name: "name (mc_process_tgz_links)", Off: 16, Size: 64},
	{Name: "buf (mc_process_tgz_links)", Off: 80, Size: 128},
}}
var server_mc_spec_mc_config_line = &mem.FrameSpec{Canary: "canary:mc_config_line", Size: 84, Reusable: false, Locals: []mem.LocalSpec{
	{Name: "line (mc_config_line)", Off: 0, Size: 8},
	{Name: "len (mc_config_line)", Off: 8, Size: 4},
	{Name: "key (mc_config_line)", Off: 12, Size: 64},
	{Name: "i (mc_config_line)", Off: 76, Size: 4},
	{Name: "k (mc_config_line)", Off: 80, Size: 4},
}}
var server_mc_spec_mc_load_config = &mem.FrameSpec{Canary: "canary:mc_load_config", Size: 152, Reusable: false, Locals: []mem.LocalSpec{
	{Name: "cfg (mc_load_config)", Off: 0, Size: 8},
	{Name: "line (mc_load_config)", Off: 8, Size: 128},
	{Name: "i (mc_load_config)", Off: 136, Size: 4},
	{Name: "k (mc_load_config)", Off: 140, Size: 4},
	{Name: "rc (mc_load_config)", Off: 144, Size: 4},
	{Name: "ok (mc_load_config)", Off: 148, Size: 4},
}}
var server_mc_spec_mc_copy_file = &mem.FrameSpec{Canary: "canary:mc_copy_file", Size: 4124, Reusable: false, Locals: []mem.LocalSpec{
	{Name: "path (mc_copy_file)", Off: 0, Size: 8},
	{Name: "size (mc_copy_file)", Off: 8, Size: 4},
	{Name: "chunk (mc_copy_file)", Off: 12, Size: 4096},
	{Name: "off (mc_copy_file)", Off: 4108, Size: 4},
	{Name: "n (mc_copy_file)", Off: 4112, Size: 4},
	{Name: "i (mc_copy_file)", Off: 4116, Size: 4},
	{Name: "sum (mc_copy_file)", Off: 4120, Size: 4},
}}
var server_mc_spec_validate_path = &mem.FrameSpec{Canary: "canary:validate_path", Size: 33, Reusable: true, Locals: []mem.LocalSpec{
	{Name: "path (validate_path)", Off: 0, Size: 8},
	{Name: "out (validate_path)", Off: 8, Size: 8},
	{Name: "outlen (validate_path)", Off: 16, Size: 4},
	{Name: "i (validate_path)", Off: 20, Size: 4},
	{Name: "o (validate_path)", Off: 24, Size: 4},
	{Name: "prev_slash (validate_path)", Off: 28, Size: 4},
	{Name: "c (validate_path)", Off: 32, Size: 1},
}}
var server_mc_spec_mc_move_file = &mem.FrameSpec{Canary: "canary:mc_move_file", Size: 272, Reusable: false, Locals: []mem.LocalSpec{
	{Name: "from (mc_move_file)", Off: 0, Size: 8},
	{Name: "to (mc_move_file)", Off: 8, Size: 8},
	{Name: "cfrom (mc_move_file)", Off: 16, Size: 128},
	{Name: "cto (mc_move_file)", Off: 144, Size: 128},
}}
var server_mc_spec_mc_mkdir = &mem.FrameSpec{Canary: "canary:mc_mkdir", Size: 404, Reusable: false, Locals: []mem.LocalSpec{
	{Name: "path (mc_mkdir)", Off: 0, Size: 8},
	{Name: "cpath (mc_mkdir)", Off: 8, Size: 128},
	{Name: "display (mc_mkdir)", Off: 136, Size: 256},
	{Name: "n (mc_mkdir)", Off: 392, Size: 4},
	{Name: "i (mc_mkdir)", Off: 396, Size: 4},
	{Name: "o (mc_mkdir)", Off: 400, Size: 4},
}}
var server_mc_spec_mc_delete_file = &mem.FrameSpec{Canary: "canary:mc_delete_file", Size: 8, Reusable: true, Locals: []mem.LocalSpec{
	{Name: "path (mc_delete_file)", Off: 0, Size: 8},
}}

var server_mc_prog *interp.GenProgram

func init() {
	server_mc_t0 = types.PointerTo(types.CharType)
	server_mc_t1 = types.PointerTo(types.VoidType)
	server_mc_prog = &interp.GenProgram{
		Hash:     "2a06aabe00a8faf0fb6dba070af7f21f74ebaca9c66f36f42f66f4303a0d566c",
		NumSites: 19,
		Builtins: []string{"tgz_link_target", "strcat", "vfs_lookup", "snprintf", "vfs_read_chunk", "memcpy", "vfs_rename", "vfs_mkdir", "vfs_unlink"},
		Funcs: map[string]interp.GenFn{
			"mc_process_tgz_links": server_mc_f_mc_process_tgz_links,
			"mc_config_line":       server_mc_f_mc_config_line,
			"mc_load_config":       server_mc_f_mc_load_config,
			"mc_copy_file":         server_mc_f_mc_copy_file,
			"validate_path":        server_mc_f_validate_path,
			"mc_move_file":         server_mc_f_mc_move_file,
			"mc_mkdir":             server_mc_f_mc_mkdir,
			"mc_delete_file":       server_mc_f_mc_delete_file,
		},
	}
	interp.RegisterGenerated(server_mc_prog)
}

func server_mc_f_mc_process_tgz_links(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 1 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "mc_process_tgz_links", len(args), 1)
	}
	f := m.GenPushFrame(server_mc_spec_mc_process_tgz_links)
	var v0 interp.Value
	if args[0].T == types.IntType {
		v0 = args[0]
	} else if args[0].T != nil && args[0].T.IsInteger() {
		v0 = interp.Value{T: types.IntType, I: int64(int32(args[0].I))}
	} else {
		v0 = m.GenConvert(args[0], types.IntType, pos)
	}
	m.GenStoreRaw(f.LocalAt(0), 0, types.IntType, v0)
	ret := m.GenExec(f, server_mc_b_mc_process_tgz_links)
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

func server_mc_b_mc_process_tgz_links(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v1 := f.LocalAt(1)
		_ = v1
		v2 := f.LocalAt(2)
		_ = v2
		v3 := f.LocalAt(3)
		m.GenStoreRaw(v3, 0, types.IntType, (interp.Value{T: types.IntType, I: 0}))
	}
	{
		m.GenStep()
		v4 := f.LocalAt(4)
		_ = v4
	}
	{
		m.GenStep()
		v5 := f.LocalAt(5)
		_ = v5
	}
	{
		m.GenStep()
		{
			m.GenStep()
			v6 := f.LocalAt(1)
			m.GenStoreRaw(v6, 0, types.IntType, (interp.Value{T: types.IntType, I: 0}))
			_ = (interp.Value{T: types.IntType, I: 0})
		}
		for {
			v7 := f.LocalAt(1)
			m.GenChargeAccess()
			v8 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v7.Data[0:])))}
			v9 := f.LocalAt(0)
			m.GenChargeAccess()
			v10 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v9.Data[0:])))}
			var v11 interp.Value
			if v8.T == types.IntType && v10.T == types.IntType {
				if v8.I < v10.I {
					v11 = interp.Value{T: types.IntType, I: 1}
				} else {
					v11 = interp.Value{T: types.IntType, I: 0}
				}
			} else {
				v11 = m.GenBinaryOp(token.Lt, v8, v10, types.IntType, server_mc_pos[0])
			}
			if !v11.Truthy() {
				break
			}
			m.GenStep()
			{
				m.GenStep()
				{
					m.GenStep()
					m.GenStep()
					v12 := m.GenArgs(3)
					v13 := f.LocalAt(1)
					m.GenChargeAccess()
					v14 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v13.Data[0:])))}
					v12[0] = v14
					v15 := f.LocalAt(4)
					v16 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v15.Base, Prov: v15}}
					v12[1] = v16
					v12[2] = (interp.Value{T: types.IntType, I: 64})
					v17 := m.GenBuiltin(0, "tgz_link_target", server_mc_pos[1])(m, server_mc_pos[1], v12)
					m.GenPutArgs(v12)
					var v18 interp.Value
					if v17.T == types.IntType {
						v18 = v17
					} else if v17.T != nil && v17.T.IsInteger() {
						v18 = interp.Value{T: types.IntType, I: int64(int32(v17.I))}
					} else {
						v18 = m.GenConvert(v17, types.IntType, server_mc_pos[1])
					}
					v19 := f.LocalAt(2)
					var v20 interp.Value
					if v18.T == types.IntType {
						v20 = v18
					} else if v18.T != nil && v18.T.IsInteger() {
						v20 = interp.Value{T: types.IntType, I: int64(int32(v18.I))}
					} else {
						v20 = m.GenConvert(v18, types.IntType, server_mc_pos[2])
					}
					m.GenStoreRaw(v19, 0, types.IntType, v20)
					_ = v20
				}
				{
					m.GenStep()
					v21 := f.LocalAt(2)
					m.GenChargeAccess()
					v22 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v21.Data[0:])))}
					var v23 interp.Value
					if v22.T == types.IntType {
						if v22.I != 0 {
							v23 = interp.Value{T: types.IntType, I: 1}
						} else {
							v23 = interp.Value{T: types.IntType, I: 0}
						}
					} else {
						v23 = m.GenBinaryOp(token.NotEq, v22, (interp.Value{T: types.IntType, I: 0}), types.IntType, server_mc_pos[3])
					}
					if v23.Truthy() {
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
					m.GenStep()
					v24 := m.GenArgs(2)
					v25 := f.LocalAt(5)
					v26 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v25.Base, Prov: v25}}
					v24[0] = v26
					v27 := m.GenLiteral(0)
					v28 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v27.Base, Prov: v27}}
					v24[1] = v28
					v29 := m.GenBuiltin(1, "strcat", server_mc_pos[4])(m, server_mc_pos[4], v24)
					m.GenPutArgs(v24)
					var v30 interp.Value
					if v29.T == server_mc_t0 {
						v30 = v29
					} else if v29.T != nil && v29.T.IsPointer() {
						v30 = interp.Value{T: server_mc_t0, Ptr: v29.Ptr}
					} else {
						v30 = m.GenConvert(v29, server_mc_t0, server_mc_pos[4])
					}
					_ = v30
				}
				{
					m.GenStep()
					m.GenStep()
					v31 := m.GenArgs(2)
					v32 := f.LocalAt(5)
					v33 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v32.Base, Prov: v32}}
					v31[0] = v33
					v34 := f.LocalAt(4)
					v35 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v34.Base, Prov: v34}}
					v31[1] = v35
					v36 := m.GenBuiltin(1, "strcat", server_mc_pos[5])(m, server_mc_pos[5], v31)
					m.GenPutArgs(v31)
					var v37 interp.Value
					if v36.T == server_mc_t0 {
						v37 = v36
					} else if v36.T != nil && v36.T.IsPointer() {
						v37 = interp.Value{T: server_mc_t0, Ptr: v36.Ptr}
					} else {
						v37 = m.GenConvert(v36, server_mc_t0, server_mc_pos[5])
					}
					_ = v37
				}
				{
					m.GenStep()
					m.GenStep()
					v38 := m.GenArgs(1)
					v39 := f.LocalAt(5)
					v40 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v39.Base, Prov: v39}}
					v38[0] = v40
					v41 := m.GenBuiltin(2, "vfs_lookup", server_mc_pos[6])(m, server_mc_pos[6], v38)
					m.GenPutArgs(v38)
					var v42 interp.Value
					if v41.T == types.IntType {
						v42 = v41
					} else if v41.T != nil && v41.T.IsInteger() {
						v42 = interp.Value{T: types.IntType, I: int64(int32(v41.I))}
					} else {
						v42 = m.GenConvert(v41, types.IntType, server_mc_pos[6])
					}
					var v43 interp.Value
					if v42.T == types.IntType {
						if v42.I != 0 {
							v43 = interp.Value{T: types.IntType, I: 1}
						} else {
							v43 = interp.Value{T: types.IntType, I: 0}
						}
					} else {
						v43 = m.GenBinaryOp(token.NotEq, v42, (interp.Value{T: types.IntType, I: 0}), types.IntType, server_mc_pos[7])
					}
					if v43.Truthy() {
						{
							m.GenStep()
							v44 := f.LocalAt(3)
							m.GenChargeAccess()
							v45 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v44.Data[0:])))}
							v46 := interp.Value{T: v45.T, I: int64(int32(v45.I + 1))}
							m.GenStoreRaw(v44, 0, types.IntType, v46)
							_ = v45
						}
					}
				}
			}
		c0_cont:
			;
			v47 := f.LocalAt(1)
			m.GenChargeAccess()
			v48 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v47.Data[0:])))}
			v49 := interp.Value{T: v48.T, I: int64(int32(v48.I + 1))}
			m.GenStoreRaw(v47, 0, types.IntType, v49)
			_ = v48
		}
	}
	{
		m.GenStep()
		m.GenStep()
		v50 := m.GenArgs(5)
		v51 := m.GenGlobal(0)
		v52 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v51.Base, Prov: v51}}
		v50[0] = v52
		v50[1] = (interp.Value{T: types.ULongType, I: 256})
		v53 := m.GenLiteral(1)
		v54 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v53.Base, Prov: v53}}
		v50[2] = v54
		v55 := f.LocalAt(0)
		m.GenChargeAccess()
		v56 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v55.Data[0:])))}
		v50[3] = v56
		v57 := f.LocalAt(3)
		m.GenChargeAccess()
		v58 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v57.Data[0:])))}
		v50[4] = v58
		v59 := m.GenBuiltin(3, "snprintf", server_mc_pos[8])(m, server_mc_pos[8], v50)
		m.GenPutArgs(v50)
		var v60 interp.Value
		if v59.T == types.IntType {
			v60 = v59
		} else if v59.T != nil && v59.T.IsInteger() {
			v60 = interp.Value{T: types.IntType, I: int64(int32(v59.I))}
		} else {
			v60 = m.GenConvert(v59, types.IntType, server_mc_pos[8])
		}
		_ = v60
	}
	{
		m.GenStep()
		v61 := f.LocalAt(3)
		m.GenChargeAccess()
		v62 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v61.Data[0:])))}
		ret = v62
		if interp.GenLive {
			return
		}
	}
	return
}

func server_mc_f_mc_config_line(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 2 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "mc_config_line", len(args), 2)
	}
	f := m.GenPushFrame(server_mc_spec_mc_config_line)
	var v0 interp.Value
	if args[0].T == server_mc_t0 {
		v0 = args[0]
	} else if args[0].T != nil && args[0].T.IsPointer() {
		v0 = interp.Value{T: server_mc_t0, Ptr: args[0].Ptr}
	} else {
		v0 = m.GenConvert(args[0], server_mc_t0, pos)
	}
	m.GenStoreRaw(f.LocalAt(0), 0, server_mc_t0, v0)
	var v1 interp.Value
	if args[1].T == types.IntType {
		v1 = args[1]
	} else if args[1].T != nil && args[1].T.IsInteger() {
		v1 = interp.Value{T: types.IntType, I: int64(int32(args[1].I))}
	} else {
		v1 = m.GenConvert(args[1], types.IntType, pos)
	}
	m.GenStoreRaw(f.LocalAt(1), 0, types.IntType, v1)
	ret := m.GenExec(f, server_mc_b_mc_config_line)
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

func server_mc_b_mc_config_line(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v2 := f.LocalAt(2)
		_ = v2
	}
	{
		m.GenStep()
		v3 := f.LocalAt(3)
		m.GenStoreRaw(v3, 0, types.IntType, (interp.Value{T: types.IntType, I: 0}))
		v4 := f.LocalAt(4)
		m.GenStoreRaw(v4, 0, types.IntType, (interp.Value{T: types.IntType, I: 0}))
	}
	{
		m.GenStep()
		v5 := f.LocalAt(0)
		v6 := m.GenLoadRaw(v5, 0, server_mc_t0, 0)
		v7 := f.LocalAt(1)
		m.GenChargeAccess()
		v8 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v7.Data[0:])))}
		var v9 interp.Value
		if v8.T == types.IntType {
			v9 = interp.Value{T: types.IntType, I: int64(int32(v8.I - 1))}
		} else {
			v9 = m.GenBinaryOp(token.Minus, v8, (interp.Value{T: types.IntType, I: 1}), types.IntType, server_mc_pos[9])
		}
		v10 := core.Pointer{Addr: v6.Ptr.Addr + uint64(v9.I)*1, Prov: v6.Ptr.Prov}
		v11 := m.GenLoadValue(v10, types.CharType, server_mc_pos[10], -1, 0)
		var v12 interp.Value
		if v11.T == types.CharType {
			if int64(int32(v11.I)) == 92 {
				v12 = interp.Value{T: types.IntType, I: 1}
			} else {
				v12 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v12 = m.GenBinaryOp(token.EqEq, v11, (interp.Value{T: types.IntType, I: 92}), types.IntType, server_mc_pos[11])
		}
		if v12.Truthy() {
			{
				m.GenStep()
				ret = (interp.Value{T: types.IntType, I: -2})
				if interp.GenLive {
					return
				}
			}
		}
	}
	{
		m.GenStep()
		v13 := f.LocalAt(1)
		m.GenChargeAccess()
		v14 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v13.Data[0:])))}
		var v15 interp.Value
		if v14.T == types.IntType {
			if v14.I == 0 {
				v15 = interp.Value{T: types.IntType, I: 1}
			} else {
				v15 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v15 = m.GenBinaryOp(token.EqEq, v14, (interp.Value{T: types.IntType, I: 0}), types.IntType, server_mc_pos[12])
		}
		if v15.Truthy() {
			{
				m.GenStep()
				ret = (interp.Value{T: types.IntType, I: -1})
				if interp.GenLive {
					return
				}
			}
		}
	}
	{
		m.GenStep()
		for {
			var v16 interp.Value
			v17 := f.LocalAt(3)
			m.GenChargeAccess()
			v18 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v17.Data[0:])))}
			v19 := f.LocalAt(1)
			m.GenChargeAccess()
			v20 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v19.Data[0:])))}
			var v21 interp.Value
			if v18.T == types.IntType && v20.T == types.IntType {
				if v18.I < v20.I {
					v21 = interp.Value{T: types.IntType, I: 1}
				} else {
					v21 = interp.Value{T: types.IntType, I: 0}
				}
			} else {
				v21 = m.GenBinaryOp(token.Lt, v18, v20, types.IntType, server_mc_pos[13])
			}
			if !v21.Truthy() {
				v16 = interp.Value{T: types.IntType, I: 0}
			} else {
				v22 := f.LocalAt(0)
				v23 := m.GenLoadRaw(v22, 0, server_mc_t0, 1)
				v24 := f.LocalAt(3)
				m.GenChargeAccess()
				v25 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v24.Data[0:])))}
				v26 := core.Pointer{Addr: v23.Ptr.Addr + uint64(v25.I)*1, Prov: v23.Ptr.Prov}
				v27 := m.GenLoadValue(v26, types.CharType, server_mc_pos[14], -1, 1)
				var v28 interp.Value
				if v27.T == types.CharType {
					if int64(int32(v27.I)) != 61 {
						v28 = interp.Value{T: types.IntType, I: 1}
					} else {
						v28 = interp.Value{T: types.IntType, I: 0}
					}
				} else {
					v28 = m.GenBinaryOp(token.NotEq, v27, (interp.Value{T: types.IntType, I: 61}), types.IntType, server_mc_pos[15])
				}
				if v28.Truthy() {
					v16 = interp.Value{T: types.IntType, I: 1}
				} else {
					v16 = interp.Value{T: types.IntType, I: 0}
				}
			}
			if !v16.Truthy() {
				break
			}
			m.GenStep()
			{
				m.GenStep()
				{
					m.GenStep()
					v29 := f.LocalAt(4)
					m.GenChargeAccess()
					v30 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v29.Data[0:])))}
					var v31 interp.Value
					if v30.T == types.IntType {
						if v30.I < 63 {
							v31 = interp.Value{T: types.IntType, I: 1}
						} else {
							v31 = interp.Value{T: types.IntType, I: 0}
						}
					} else {
						v31 = m.GenBinaryOp(token.Lt, v30, (interp.Value{T: types.IntType, I: 63}), types.IntType, server_mc_pos[16])
					}
					if v31.Truthy() {
						{
							m.GenStep()
							v32 := f.LocalAt(0)
							v33 := m.GenLoadRaw(v32, 0, server_mc_t0, 2)
							v34 := f.LocalAt(3)
							m.GenChargeAccess()
							v35 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v34.Data[0:])))}
							v36 := core.Pointer{Addr: v33.Ptr.Addr + uint64(v35.I)*1, Prov: v33.Ptr.Prov}
							v37 := m.GenLoadValue(v36, types.CharType, server_mc_pos[17], -1, 3)
							v38 := f.LocalAt(2)
							v39 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v38.Base, Prov: v38}}
							v40 := f.LocalAt(4)
							m.GenChargeAccess()
							v41 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v40.Data[0:])))}
							v42 := interp.Value{T: v41.T, I: int64(int32(v41.I + 1))}
							m.GenStoreRaw(v40, 0, types.IntType, v42)
							v43 := core.Pointer{Addr: v39.Ptr.Addr + uint64(v41.I)*1, Prov: v39.Ptr.Prov}
							var v44 interp.Value
							if v37.T == types.CharType {
								v44 = v37
							} else if v37.T != nil && v37.T.IsInteger() {
								v44 = interp.Value{T: types.CharType, I: int64(int8(v37.I))}
							} else {
								v44 = m.GenConvert(v37, types.CharType, server_mc_pos[18])
							}
							m.GenStoreValue(v43, types.CharType, v44, server_mc_pos[18])
							_ = v44
						}
					}
				}
				{
					m.GenStep()
					v45 := f.LocalAt(3)
					m.GenChargeAccess()
					v46 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v45.Data[0:])))}
					v47 := interp.Value{T: v46.T, I: int64(int32(v46.I + 1))}
					m.GenStoreRaw(v45, 0, types.IntType, v47)
					_ = v46
				}
			}
		}
	}
	{
		m.GenStep()
		v48 := f.LocalAt(3)
		m.GenChargeAccess()
		v49 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v48.Data[0:])))}
		v50 := f.LocalAt(1)
		m.GenChargeAccess()
		v51 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v50.Data[0:])))}
		var v52 interp.Value
		if v49.T == types.IntType && v51.T == types.IntType {
			if v49.I >= v51.I {
				v52 = interp.Value{T: types.IntType, I: 1}
			} else {
				v52 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v52 = m.GenBinaryOp(token.Ge, v49, v51, types.IntType, server_mc_pos[19])
		}
		if v52.Truthy() {
			{
				m.GenStep()
				ret = (interp.Value{T: types.IntType, I: -1})
				if interp.GenLive {
					return
				}
			}
		}
	}
	{
		m.GenStep()
		v53 := f.LocalAt(2)
		v54 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v53.Base, Prov: v53}}
		v55 := f.LocalAt(4)
		m.GenChargeAccess()
		v56 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v55.Data[0:])))}
		v57 := core.Pointer{Addr: v54.Ptr.Addr + uint64(v56.I)*1, Prov: v54.Ptr.Prov}
		m.GenStoreValue(v57, types.CharType, (interp.Value{T: types.CharType, I: 0}), server_mc_pos[20])
		_ = (interp.Value{T: types.CharType, I: 0})
	}
	{
		m.GenStep()
		ret = (interp.Value{T: types.IntType, I: 0})
		if interp.GenLive {
			return
		}
	}
	return
}

func server_mc_f_mc_load_config(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 1 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "mc_load_config", len(args), 1)
	}
	f := m.GenPushFrame(server_mc_spec_mc_load_config)
	var v0 interp.Value
	if args[0].T == server_mc_t0 {
		v0 = args[0]
	} else if args[0].T != nil && args[0].T.IsPointer() {
		v0 = interp.Value{T: server_mc_t0, Ptr: args[0].Ptr}
	} else {
		v0 = m.GenConvert(args[0], server_mc_t0, pos)
	}
	m.GenStoreRaw(f.LocalAt(0), 0, server_mc_t0, v0)
	ret := m.GenExec(f, server_mc_b_mc_load_config)
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

func server_mc_b_mc_load_config(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v1 := f.LocalAt(1)
		_ = v1
	}
	{
		m.GenStep()
		v2 := f.LocalAt(2)
		m.GenStoreRaw(v2, 0, types.IntType, (interp.Value{T: types.IntType, I: 0}))
		v3 := f.LocalAt(3)
		_ = v3
		v4 := f.LocalAt(4)
		_ = v4
		v5 := f.LocalAt(5)
		m.GenStoreRaw(v5, 0, types.IntType, (interp.Value{T: types.IntType, I: 0}))
	}
	{
		m.GenStep()
		for {
			v6 := f.LocalAt(0)
			v7 := m.GenLoadRaw(v6, 0, server_mc_t0, 3)
			v8 := f.LocalAt(2)
			m.GenChargeAccess()
			v9 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v8.Data[0:])))}
			v10 := core.Pointer{Addr: v7.Ptr.Addr + uint64(v9.I)*1, Prov: v7.Ptr.Prov}
			v11 := m.GenLoadValue(v10, types.CharType, server_mc_pos[21], -1, 5)
			var v12 interp.Value
			if v11.T == types.CharType {
				if int64(int32(v11.I)) != 0 {
					v12 = interp.Value{T: types.IntType, I: 1}
				} else {
					v12 = interp.Value{T: types.IntType, I: 0}
				}
			} else {
				v12 = m.GenBinaryOp(token.NotEq, v11, (interp.Value{T: types.IntType, I: 0}), types.IntType, server_mc_pos[22])
			}
			if !v12.Truthy() {
				break
			}
			m.GenStep()
			{
				m.GenStep()
				{
					m.GenStep()
					v13 := f.LocalAt(3)
					m.GenStoreRaw(v13, 0, types.IntType, (interp.Value{T: types.IntType, I: 0}))
					_ = (interp.Value{T: types.IntType, I: 0})
				}
				{
					m.GenStep()
					for {
						var v14 interp.Value
						v15 := f.LocalAt(0)
						v16 := m.GenLoadRaw(v15, 0, server_mc_t0, 4)
						v17 := f.LocalAt(2)
						m.GenChargeAccess()
						v18 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v17.Data[0:])))}
						v19 := core.Pointer{Addr: v16.Ptr.Addr + uint64(v18.I)*1, Prov: v16.Ptr.Prov}
						v20 := m.GenLoadValue(v19, types.CharType, server_mc_pos[23], -1, 6)
						var v21 interp.Value
						if v20.T == types.CharType {
							if int64(int32(v20.I)) != 0 {
								v21 = interp.Value{T: types.IntType, I: 1}
							} else {
								v21 = interp.Value{T: types.IntType, I: 0}
							}
						} else {
							v21 = m.GenBinaryOp(token.NotEq, v20, (interp.Value{T: types.IntType, I: 0}), types.IntType, server_mc_pos[24])
						}
						if !v21.Truthy() {
							v14 = interp.Value{T: types.IntType, I: 0}
						} else {
							v22 := f.LocalAt(0)
							v23 := m.GenLoadRaw(v22, 0, server_mc_t0, 5)
							v24 := f.LocalAt(2)
							m.GenChargeAccess()
							v25 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v24.Data[0:])))}
							v26 := core.Pointer{Addr: v23.Ptr.Addr + uint64(v25.I)*1, Prov: v23.Ptr.Prov}
							v27 := m.GenLoadValue(v26, types.CharType, server_mc_pos[25], -1, 7)
							var v28 interp.Value
							if v27.T == types.CharType {
								if int64(int32(v27.I)) != 10 {
									v28 = interp.Value{T: types.IntType, I: 1}
								} else {
									v28 = interp.Value{T: types.IntType, I: 0}
								}
							} else {
								v28 = m.GenBinaryOp(token.NotEq, v27, (interp.Value{T: types.IntType, I: 10}), types.IntType, server_mc_pos[26])
							}
							if v28.Truthy() {
								v14 = interp.Value{T: types.IntType, I: 1}
							} else {
								v14 = interp.Value{T: types.IntType, I: 0}
							}
						}
						if !v14.Truthy() {
							break
						}
						m.GenStep()
						{
							m.GenStep()
							{
								m.GenStep()
								v29 := f.LocalAt(3)
								m.GenChargeAccess()
								v30 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v29.Data[0:])))}
								var v31 interp.Value
								if v30.T == types.IntType {
									if v30.I < 127 {
										v31 = interp.Value{T: types.IntType, I: 1}
									} else {
										v31 = interp.Value{T: types.IntType, I: 0}
									}
								} else {
									v31 = m.GenBinaryOp(token.Lt, v30, (interp.Value{T: types.IntType, I: 127}), types.IntType, server_mc_pos[27])
								}
								if v31.Truthy() {
									{
										m.GenStep()
										v32 := f.LocalAt(0)
										v33 := m.GenLoadRaw(v32, 0, server_mc_t0, 6)
										v34 := f.LocalAt(2)
										m.GenChargeAccess()
										v35 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v34.Data[0:])))}
										v36 := core.Pointer{Addr: v33.Ptr.Addr + uint64(v35.I)*1, Prov: v33.Ptr.Prov}
										v37 := m.GenLoadValue(v36, types.CharType, server_mc_pos[28], -1, 9)
										v38 := f.LocalAt(1)
										v39 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v38.Base, Prov: v38}}
										v40 := f.LocalAt(3)
										m.GenChargeAccess()
										v41 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v40.Data[0:])))}
										v42 := interp.Value{T: v41.T, I: int64(int32(v41.I + 1))}
										m.GenStoreRaw(v40, 0, types.IntType, v42)
										v43 := core.Pointer{Addr: v39.Ptr.Addr + uint64(v41.I)*1, Prov: v39.Ptr.Prov}
										var v44 interp.Value
										if v37.T == types.CharType {
											v44 = v37
										} else if v37.T != nil && v37.T.IsInteger() {
											v44 = interp.Value{T: types.CharType, I: int64(int8(v37.I))}
										} else {
											v44 = m.GenConvert(v37, types.CharType, server_mc_pos[29])
										}
										m.GenStoreValue(v43, types.CharType, v44, server_mc_pos[29])
										_ = v44
									}
								}
							}
							{
								m.GenStep()
								v45 := f.LocalAt(2)
								m.GenChargeAccess()
								v46 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v45.Data[0:])))}
								v47 := interp.Value{T: v46.T, I: int64(int32(v46.I + 1))}
								m.GenStoreRaw(v45, 0, types.IntType, v47)
								_ = v46
							}
						}
					}
				}
				{
					m.GenStep()
					v48 := f.LocalAt(0)
					v49 := m.GenLoadRaw(v48, 0, server_mc_t0, 7)
					v50 := f.LocalAt(2)
					m.GenChargeAccess()
					v51 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v50.Data[0:])))}
					v52 := core.Pointer{Addr: v49.Ptr.Addr + uint64(v51.I)*1, Prov: v49.Ptr.Prov}
					v53 := m.GenLoadValue(v52, types.CharType, server_mc_pos[30], -1, 10)
					var v54 interp.Value
					if v53.T == types.CharType {
						if int64(int32(v53.I)) == 10 {
							v54 = interp.Value{T: types.IntType, I: 1}
						} else {
							v54 = interp.Value{T: types.IntType, I: 0}
						}
					} else {
						v54 = m.GenBinaryOp(token.EqEq, v53, (interp.Value{T: types.IntType, I: 10}), types.IntType, server_mc_pos[31])
					}
					if v54.Truthy() {
						{
							m.GenStep()
							v55 := f.LocalAt(2)
							m.GenChargeAccess()
							v56 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v55.Data[0:])))}
							v57 := interp.Value{T: v56.T, I: int64(int32(v56.I + 1))}
							m.GenStoreRaw(v55, 0, types.IntType, v57)
							_ = v56
						}
					}
				}
				{
					m.GenStep()
					v58 := f.LocalAt(1)
					v59 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v58.Base, Prov: v58}}
					v60 := f.LocalAt(3)
					m.GenChargeAccess()
					v61 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v60.Data[0:])))}
					v62 := core.Pointer{Addr: v59.Ptr.Addr + uint64(v61.I)*1, Prov: v59.Ptr.Prov}
					m.GenStoreValue(v62, types.CharType, (interp.Value{T: types.CharType, I: 0}), server_mc_pos[32])
					_ = (interp.Value{T: types.CharType, I: 0})
				}
				{
					m.GenStep()
					m.GenStep()
					v63 := m.GenArgs(2)
					v64 := f.LocalAt(1)
					v65 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v64.Base, Prov: v64}}
					v63[0] = v65
					v66 := f.LocalAt(3)
					m.GenChargeAccess()
					v67 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v66.Data[0:])))}
					v63[1] = v67
					v68 := server_mc_f_mc_config_line(m, v63, server_mc_pos[33])
					m.GenPutArgs(v63)
					v69 := f.LocalAt(4)
					var v70 interp.Value
					if v68.T == types.IntType {
						v70 = v68
					} else if v68.T != nil && v68.T.IsInteger() {
						v70 = interp.Value{T: types.IntType, I: int64(int32(v68.I))}
					} else {
						v70 = m.GenConvert(v68, types.IntType, server_mc_pos[34])
					}
					m.GenStoreRaw(v69, 0, types.IntType, v70)
					_ = v70
				}
				{
					m.GenStep()
					v71 := f.LocalAt(4)
					m.GenChargeAccess()
					v72 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v71.Data[0:])))}
					var v73 interp.Value
					if v72.T == types.IntType {
						if v72.I == 0 {
							v73 = interp.Value{T: types.IntType, I: 1}
						} else {
							v73 = interp.Value{T: types.IntType, I: 0}
						}
					} else {
						v73 = m.GenBinaryOp(token.EqEq, v72, (interp.Value{T: types.IntType, I: 0}), types.IntType, server_mc_pos[35])
					}
					if v73.Truthy() {
						{
							m.GenStep()
							v74 := f.LocalAt(5)
							m.GenChargeAccess()
							v75 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v74.Data[0:])))}
							v76 := interp.Value{T: v75.T, I: int64(int32(v75.I + 1))}
							m.GenStoreRaw(v74, 0, types.IntType, v76)
							_ = v75
						}
					}
				}
			}
		}
	}
	{
		m.GenStep()
		v77 := f.LocalAt(5)
		m.GenChargeAccess()
		v78 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v77.Data[0:])))}
		ret = v78
		if interp.GenLive {
			return
		}
	}
	return
}

func server_mc_f_mc_copy_file(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 2 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "mc_copy_file", len(args), 2)
	}
	f := m.GenPushFrame(server_mc_spec_mc_copy_file)
	var v0 interp.Value
	if args[0].T == server_mc_t0 {
		v0 = args[0]
	} else if args[0].T != nil && args[0].T.IsPointer() {
		v0 = interp.Value{T: server_mc_t0, Ptr: args[0].Ptr}
	} else {
		v0 = m.GenConvert(args[0], server_mc_t0, pos)
	}
	m.GenStoreRaw(f.LocalAt(0), 0, server_mc_t0, v0)
	var v1 interp.Value
	if args[1].T == types.IntType {
		v1 = args[1]
	} else if args[1].T != nil && args[1].T.IsInteger() {
		v1 = interp.Value{T: types.IntType, I: int64(int32(args[1].I))}
	} else {
		v1 = m.GenConvert(args[1], types.IntType, pos)
	}
	m.GenStoreRaw(f.LocalAt(1), 0, types.IntType, v1)
	ret := m.GenExec(f, server_mc_b_mc_copy_file)
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

func server_mc_b_mc_copy_file(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v2 := f.LocalAt(2)
		_ = v2
	}
	{
		m.GenStep()
		v3 := f.LocalAt(3)
		m.GenStoreRaw(v3, 0, types.IntType, (interp.Value{T: types.IntType, I: 0}))
		v4 := f.LocalAt(4)
		_ = v4
		v5 := f.LocalAt(5)
		_ = v5
	}
	{
		m.GenStep()
		v6 := f.LocalAt(6)
		m.GenStoreRaw(v6, 0, types.UIntType, (interp.Value{T: types.UIntType, I: 0}))
	}
	{
		m.GenStep()
		v7 := f.LocalAt(1)
		m.GenChargeAccess()
		v8 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v7.Data[0:])))}
		var v9 interp.Value
		if v8.T == types.IntType {
			if v8.I > 1048576 {
				v9 = interp.Value{T: types.IntType, I: 1}
			} else {
				v9 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v9 = m.GenBinaryOp(token.Gt, v8, (interp.Value{T: types.IntType, I: 1048576}), types.IntType, server_mc_pos[36])
		}
		if v9.Truthy() {
			{
				m.GenStep()
				v10 := f.LocalAt(1)
				m.GenStoreRaw(v10, 0, types.IntType, (interp.Value{T: types.IntType, I: 1048576}))
				_ = (interp.Value{T: types.IntType, I: 1048576})
			}
		}
	}
	{
		m.GenStep()
		for {
			v11 := f.LocalAt(3)
			m.GenChargeAccess()
			v12 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v11.Data[0:])))}
			v13 := f.LocalAt(1)
			m.GenChargeAccess()
			v14 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v13.Data[0:])))}
			var v15 interp.Value
			if v12.T == types.IntType && v14.T == types.IntType {
				if v12.I < v14.I {
					v15 = interp.Value{T: types.IntType, I: 1}
				} else {
					v15 = interp.Value{T: types.IntType, I: 0}
				}
			} else {
				v15 = m.GenBinaryOp(token.Lt, v12, v14, types.IntType, server_mc_pos[37])
			}
			if !v15.Truthy() {
				break
			}
			m.GenStep()
			{
				m.GenStep()
				{
					m.GenStep()
					v16 := f.LocalAt(1)
					m.GenChargeAccess()
					v17 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v16.Data[0:])))}
					v18 := f.LocalAt(3)
					m.GenChargeAccess()
					v19 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v18.Data[0:])))}
					var v20 interp.Value
					if v17.T == types.IntType && v19.T == types.IntType {
						v20 = interp.Value{T: types.IntType, I: int64(int32(v17.I - v19.I))}
					} else {
						v20 = m.GenBinaryOp(token.Minus, v17, v19, types.IntType, server_mc_pos[38])
					}
					v21 := f.LocalAt(4)
					var v22 interp.Value
					if v20.T == types.IntType {
						v22 = v20
					} else if v20.T != nil && v20.T.IsInteger() {
						v22 = interp.Value{T: types.IntType, I: int64(int32(v20.I))}
					} else {
						v22 = m.GenConvert(v20, types.IntType, server_mc_pos[39])
					}
					m.GenStoreRaw(v21, 0, types.IntType, v22)
					_ = v22
				}
				{
					m.GenStep()
					v23 := f.LocalAt(4)
					m.GenChargeAccess()
					v24 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v23.Data[0:])))}
					var v25 interp.Value
					if v24.T == types.IntType {
						if v24.I > 4096 {
							v25 = interp.Value{T: types.IntType, I: 1}
						} else {
							v25 = interp.Value{T: types.IntType, I: 0}
						}
					} else {
						v25 = m.GenBinaryOp(token.Gt, v24, (interp.Value{T: types.IntType, I: 4096}), types.IntType, server_mc_pos[40])
					}
					if v25.Truthy() {
						{
							m.GenStep()
							v26 := f.LocalAt(4)
							m.GenStoreRaw(v26, 0, types.IntType, (interp.Value{T: types.IntType, I: 4096}))
							_ = (interp.Value{T: types.IntType, I: 4096})
						}
					}
				}
				{
					m.GenStep()
					m.GenStep()
					v27 := m.GenArgs(4)
					v28 := f.LocalAt(0)
					v29 := m.GenLoadRaw(v28, 0, server_mc_t0, 8)
					v27[0] = v29
					v30 := f.LocalAt(3)
					m.GenChargeAccess()
					v31 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v30.Data[0:])))}
					v27[1] = v31
					v32 := f.LocalAt(2)
					v33 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v32.Base, Prov: v32}}
					v27[2] = v33
					v34 := f.LocalAt(4)
					m.GenChargeAccess()
					v35 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v34.Data[0:])))}
					v27[3] = v35
					v36 := m.GenBuiltin(4, "vfs_read_chunk", server_mc_pos[41])(m, server_mc_pos[41], v27)
					m.GenPutArgs(v27)
					var v37 interp.Value
					if v36.T == types.IntType {
						v37 = v36
					} else if v36.T != nil && v36.T.IsInteger() {
						v37 = interp.Value{T: types.IntType, I: int64(int32(v36.I))}
					} else {
						v37 = m.GenConvert(v36, types.IntType, server_mc_pos[41])
					}
					v38 := f.LocalAt(4)
					var v39 interp.Value
					if v37.T == types.IntType {
						v39 = v37
					} else if v37.T != nil && v37.T.IsInteger() {
						v39 = interp.Value{T: types.IntType, I: int64(int32(v37.I))}
					} else {
						v39 = m.GenConvert(v37, types.IntType, server_mc_pos[42])
					}
					m.GenStoreRaw(v38, 0, types.IntType, v39)
					_ = v39
				}
				{
					m.GenStep()
					v40 := f.LocalAt(4)
					m.GenChargeAccess()
					v41 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v40.Data[0:])))}
					var v42 interp.Value
					if v41.T == types.IntType {
						if v41.I <= 0 {
							v42 = interp.Value{T: types.IntType, I: 1}
						} else {
							v42 = interp.Value{T: types.IntType, I: 0}
						}
					} else {
						v42 = m.GenBinaryOp(token.Le, v41, (interp.Value{T: types.IntType, I: 0}), types.IntType, server_mc_pos[43])
					}
					if v42.Truthy() {
						{
							m.GenStep()
							if interp.GenLive {
								break
							}
						}
					}
				}
				{
					m.GenStep()
					{
						m.GenStep()
						v43 := f.LocalAt(5)
						m.GenStoreRaw(v43, 0, types.IntType, (interp.Value{T: types.IntType, I: 0}))
						_ = (interp.Value{T: types.IntType, I: 0})
					}
					for {
						var v44 interp.Value
						v45 := f.LocalAt(5)
						m.GenChargeAccess()
						v46 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v45.Data[0:])))}
						v47 := f.LocalAt(4)
						m.GenChargeAccess()
						v48 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v47.Data[0:])))}
						var v49 interp.Value
						if v46.T == types.IntType && v48.T == types.IntType {
							if v46.I < v48.I {
								v49 = interp.Value{T: types.IntType, I: 1}
							} else {
								v49 = interp.Value{T: types.IntType, I: 0}
							}
						} else {
							v49 = m.GenBinaryOp(token.Lt, v46, v48, types.IntType, server_mc_pos[44])
						}
						if !v49.Truthy() {
							v44 = interp.Value{T: types.IntType, I: 0}
						} else {
							v50 := f.LocalAt(5)
							m.GenChargeAccess()
							v51 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v50.Data[0:])))}
							var v52 interp.Value
							if v51.T == types.IntType {
								if v51.I < 160 {
									v52 = interp.Value{T: types.IntType, I: 1}
								} else {
									v52 = interp.Value{T: types.IntType, I: 0}
								}
							} else {
								v52 = m.GenBinaryOp(token.Lt, v51, (interp.Value{T: types.IntType, I: 160}), types.IntType, server_mc_pos[45])
							}
							if v52.Truthy() {
								v44 = interp.Value{T: types.IntType, I: 1}
							} else {
								v44 = interp.Value{T: types.IntType, I: 0}
							}
						}
						if !v44.Truthy() {
							break
						}
						m.GenStep()
						{
							m.GenStep()
							v53 := f.LocalAt(6)
							m.GenChargeAccess()
							v54 := interp.Value{T: types.UIntType, I: int64(binary.LittleEndian.Uint32(v53.Data[0:]))}
							var v55 interp.Value
							if v54.T == types.UIntType {
								v55 = interp.Value{T: types.UIntType, I: int64(uint32(v54.I * 31))}
							} else {
								v55 = m.GenBinaryOp(token.Star, v54, (interp.Value{T: types.UIntType, I: 31}), types.UIntType, server_mc_pos[46])
							}
							v56 := f.LocalAt(2)
							v57 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v56.Base, Prov: v56}}
							v58 := f.LocalAt(5)
							m.GenChargeAccess()
							v59 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v58.Data[0:])))}
							v60 := core.Pointer{Addr: v57.Ptr.Addr + uint64(v59.I)*1, Prov: v57.Ptr.Prov}
							v61 := m.GenLoadValue(v60, types.CharType, server_mc_pos[47], -1, 12)
							var v62 interp.Value
							if v61.T == types.UCharType {
								v62 = v61
							} else if v61.T != nil && v61.T.IsInteger() {
								v62 = interp.Value{T: types.UCharType, I: int64(uint8(v61.I))}
							} else {
								v62 = m.GenConvert(v61, types.UCharType, server_mc_pos[48])
							}
							var v63 interp.Value
							if v55.T == types.UIntType && v62.T == types.UCharType {
								v63 = interp.Value{T: types.UIntType, I: int64(uint32(v55.I + int64(uint32(v62.I))))}
							} else {
								v63 = m.GenBinaryOp(token.Plus, v55, v62, types.UIntType, server_mc_pos[49])
							}
							v64 := f.LocalAt(6)
							var v65 interp.Value
							if v63.T == types.UIntType {
								v65 = v63
							} else if v63.T != nil && v63.T.IsInteger() {
								v65 = interp.Value{T: types.UIntType, I: int64(uint32(v63.I))}
							} else {
								v65 = m.GenConvert(v63, types.UIntType, server_mc_pos[50])
							}
							m.GenStoreRaw(v64, 0, types.UIntType, v65)
							_ = v65
						}
						v66 := f.LocalAt(5)
						m.GenChargeAccess()
						v67 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v66.Data[0:])))}
						v68 := interp.Value{T: v67.T, I: int64(int32(v67.I + 1))}
						m.GenStoreRaw(v66, 0, types.IntType, v68)
						_ = v67
					}
				}
				{
					m.GenStep()
					m.GenStep()
					v69 := m.GenArgs(3)
					v70 := m.GenGlobal(1)
					v71 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v70.Base, Prov: v70}}
					v72 := f.LocalAt(3)
					m.GenChargeAccess()
					v73 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v72.Data[0:])))}
					v74 := core.Pointer{Addr: v71.Ptr.Addr + uint64(v73.I)*1, Prov: v71.Ptr.Prov}
					v75 := interp.Value{T: server_mc_t0, Ptr: v74}
					v69[0] = v75
					v76 := f.LocalAt(2)
					v77 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v76.Base, Prov: v76}}
					v69[1] = v77
					v78 := f.LocalAt(4)
					m.GenChargeAccess()
					v79 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v78.Data[0:])))}
					var v80 interp.Value
					if v79.T == types.ULongType {
						v80 = v79
					} else if v79.T != nil && v79.T.IsInteger() {
						v80 = interp.Value{T: types.ULongType, I: v79.I}
					} else {
						v80 = m.GenConvert(v79, types.ULongType, server_mc_pos[51])
					}
					v69[2] = v80
					v81 := m.GenBuiltin(5, "memcpy", server_mc_pos[52])(m, server_mc_pos[52], v69)
					m.GenPutArgs(v69)
					var v82 interp.Value
					if v81.T == server_mc_t1 {
						v82 = v81
					} else if v81.T != nil && v81.T.IsPointer() {
						v82 = interp.Value{T: server_mc_t1, Ptr: v81.Ptr}
					} else {
						v82 = m.GenConvert(v81, server_mc_t1, server_mc_pos[52])
					}
					_ = v82
				}
				{
					m.GenStep()
					v83 := f.LocalAt(3)
					m.GenChargeAccess()
					v84 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v83.Data[0:])))}
					v85 := f.LocalAt(4)
					m.GenChargeAccess()
					v86 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v85.Data[0:])))}
					var v87 interp.Value
					if v84.T == types.IntType && v86.T == types.IntType {
						v87 = interp.Value{T: types.IntType, I: int64(int32(v84.I + v86.I))}
					} else {
						v87 = m.GenBinaryOp(token.Plus, v84, v86, types.IntType, server_mc_pos[53])
					}
					var v88 interp.Value
					if v87.T == types.IntType {
						v88 = v87
					} else if v87.T != nil && v87.T.IsInteger() {
						v88 = interp.Value{T: types.IntType, I: int64(int32(v87.I))}
					} else {
						v88 = m.GenConvert(v87, types.IntType, server_mc_pos[53])
					}
					m.GenStoreRaw(v83, 0, types.IntType, v88)
					_ = v88
				}
			}
		}
	}
	{
		m.GenStep()
		v89 := f.LocalAt(3)
		m.GenChargeAccess()
		v90 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v89.Data[0:])))}
		v91 := m.GenGlobal(2)
		var v92 interp.Value
		if v90.T == types.IntType {
			v92 = v90
		} else if v90.T != nil && v90.T.IsInteger() {
			v92 = interp.Value{T: types.IntType, I: int64(int32(v90.I))}
		} else {
			v92 = m.GenConvert(v90, types.IntType, server_mc_pos[54])
		}
		m.GenStoreRaw(v91, 0, types.IntType, v92)
		_ = v92
	}
	{
		m.GenStep()
		m.GenStep()
		v93 := m.GenArgs(6)
		v94 := m.GenGlobal(0)
		v95 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v94.Base, Prov: v94}}
		v93[0] = v95
		v93[1] = (interp.Value{T: types.ULongType, I: 256})
		v96 := m.GenLiteral(2)
		v97 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v96.Base, Prov: v96}}
		v93[2] = v97
		v98 := f.LocalAt(3)
		m.GenChargeAccess()
		v99 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v98.Data[0:])))}
		v93[3] = v99
		v100 := f.LocalAt(0)
		v101 := m.GenLoadRaw(v100, 0, server_mc_t0, 9)
		v93[4] = v101
		v102 := f.LocalAt(6)
		m.GenChargeAccess()
		v103 := interp.Value{T: types.UIntType, I: int64(binary.LittleEndian.Uint32(v102.Data[0:]))}
		v93[5] = v103
		v104 := m.GenBuiltin(3, "snprintf", server_mc_pos[55])(m, server_mc_pos[55], v93)
		m.GenPutArgs(v93)
		var v105 interp.Value
		if v104.T == types.IntType {
			v105 = v104
		} else if v104.T != nil && v104.T.IsInteger() {
			v105 = interp.Value{T: types.IntType, I: int64(int32(v104.I))}
		} else {
			v105 = m.GenConvert(v104, types.IntType, server_mc_pos[55])
		}
		_ = v105
	}
	{
		m.GenStep()
		v106 := f.LocalAt(3)
		m.GenChargeAccess()
		v107 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v106.Data[0:])))}
		ret = v107
		if interp.GenLive {
			return
		}
	}
	return
}

func server_mc_f_validate_path(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 3 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "validate_path", len(args), 3)
	}
	f := m.GenPushFrame(server_mc_spec_validate_path)
	var v0 interp.Value
	if args[0].T == server_mc_t0 {
		v0 = args[0]
	} else if args[0].T != nil && args[0].T.IsPointer() {
		v0 = interp.Value{T: server_mc_t0, Ptr: args[0].Ptr}
	} else {
		v0 = m.GenConvert(args[0], server_mc_t0, pos)
	}
	m.GenStoreRaw(f.LocalAt(0), 0, server_mc_t0, v0)
	var v1 interp.Value
	if args[1].T == server_mc_t0 {
		v1 = args[1]
	} else if args[1].T != nil && args[1].T.IsPointer() {
		v1 = interp.Value{T: server_mc_t0, Ptr: args[1].Ptr}
	} else {
		v1 = m.GenConvert(args[1], server_mc_t0, pos)
	}
	m.GenStoreRaw(f.LocalAt(1), 0, server_mc_t0, v1)
	var v2 interp.Value
	if args[2].T == types.IntType {
		v2 = args[2]
	} else if args[2].T != nil && args[2].T.IsInteger() {
		v2 = interp.Value{T: types.IntType, I: int64(int32(args[2].I))}
	} else {
		v2 = m.GenConvert(args[2], types.IntType, pos)
	}
	m.GenStoreRaw(f.LocalAt(2), 0, types.IntType, v2)
	ret := m.GenExec(f, server_mc_b_validate_path)
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

func server_mc_b_validate_path(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v3 := f.LocalAt(3)
		m.GenStoreRaw(v3, 0, types.IntType, (interp.Value{T: types.IntType, I: 0}))
		v4 := f.LocalAt(4)
		m.GenStoreRaw(v4, 0, types.IntType, (interp.Value{T: types.IntType, I: 0}))
	}
	{
		m.GenStep()
		v5 := f.LocalAt(5)
		m.GenStoreRaw(v5, 0, types.IntType, (interp.Value{T: types.IntType, I: 0}))
	}
	{
		m.GenStep()
		for {
			v6 := f.LocalAt(0)
			v7 := m.GenLoadRaw(v6, 0, server_mc_t0, 10)
			v8 := f.LocalAt(3)
			m.GenChargeAccess()
			v9 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v8.Data[0:])))}
			v10 := core.Pointer{Addr: v7.Ptr.Addr + uint64(v9.I)*1, Prov: v7.Ptr.Prov}
			v11 := m.GenLoadValue(v10, types.CharType, server_mc_pos[56], -1, 14)
			var v12 interp.Value
			if v11.T == types.CharType {
				if int64(int32(v11.I)) != 0 {
					v12 = interp.Value{T: types.IntType, I: 1}
				} else {
					v12 = interp.Value{T: types.IntType, I: 0}
				}
			} else {
				v12 = m.GenBinaryOp(token.NotEq, v11, (interp.Value{T: types.IntType, I: 0}), types.IntType, server_mc_pos[57])
			}
			if !v12.Truthy() {
				break
			}
			m.GenStep()
			{
				m.GenStep()
				{
					m.GenStep()
					v13 := f.LocalAt(6)
					v14 := f.LocalAt(0)
					v15 := m.GenLoadRaw(v14, 0, server_mc_t0, 11)
					v16 := f.LocalAt(3)
					m.GenChargeAccess()
					v17 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v16.Data[0:])))}
					v18 := core.Pointer{Addr: v15.Ptr.Addr + uint64(v17.I)*1, Prov: v15.Ptr.Prov}
					v19 := m.GenLoadValue(v18, types.CharType, server_mc_pos[58], -1, 15)
					var v20 interp.Value
					if v19.T == types.CharType {
						v20 = v19
					} else if v19.T != nil && v19.T.IsInteger() {
						v20 = interp.Value{T: types.CharType, I: int64(int8(v19.I))}
					} else {
						v20 = m.GenConvert(v19, types.CharType, server_mc_pos[59])
					}
					m.GenStoreRaw(v13, 0, types.CharType, v20)
				}
				{
					m.GenStep()
					v21 := f.LocalAt(6)
					m.GenChargeAccess()
					v22 := interp.Value{T: types.CharType, I: int64(int8(v21.Data[0]))}
					var v23 interp.Value
					if v22.T == types.CharType {
						if int64(int32(v22.I)) < 32 {
							v23 = interp.Value{T: types.IntType, I: 1}
						} else {
							v23 = interp.Value{T: types.IntType, I: 0}
						}
					} else {
						v23 = m.GenBinaryOp(token.Lt, v22, (interp.Value{T: types.IntType, I: 32}), types.IntType, server_mc_pos[60])
					}
					if v23.Truthy() {
						{
							m.GenStep()
							ret = (interp.Value{T: types.IntType, I: -1})
							if interp.GenLive {
								return
							}
						}
					}
				}
				{
					m.GenStep()
					v24 := f.LocalAt(6)
					m.GenChargeAccess()
					v25 := interp.Value{T: types.CharType, I: int64(int8(v24.Data[0]))}
					var v26 interp.Value
					if v25.T == types.CharType {
						if int64(int32(v25.I)) == 47 {
							v26 = interp.Value{T: types.IntType, I: 1}
						} else {
							v26 = interp.Value{T: types.IntType, I: 0}
						}
					} else {
						v26 = m.GenBinaryOp(token.EqEq, v25, (interp.Value{T: types.IntType, I: 47}), types.IntType, server_mc_pos[61])
					}
					if v26.Truthy() {
						{
							m.GenStep()
							{
								m.GenStep()
								var v27 interp.Value
								v28 := f.LocalAt(5)
								m.GenChargeAccess()
								v29 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v28.Data[0:])))}
								var v30 interp.Value
								if v29.Truthy() {
									v30 = interp.Value{T: types.IntType, I: 0}
								} else {
									v30 = interp.Value{T: types.IntType, I: 1}
								}
								if !v30.Truthy() {
									v27 = interp.Value{T: types.IntType, I: 0}
								} else {
									v31 := f.LocalAt(4)
									m.GenChargeAccess()
									v32 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v31.Data[0:])))}
									v33 := f.LocalAt(2)
									m.GenChargeAccess()
									v34 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v33.Data[0:])))}
									var v35 interp.Value
									if v34.T == types.IntType {
										v35 = interp.Value{T: types.IntType, I: int64(int32(v34.I - 1))}
									} else {
										v35 = m.GenBinaryOp(token.Minus, v34, (interp.Value{T: types.IntType, I: 1}), types.IntType, server_mc_pos[62])
									}
									var v36 interp.Value
									if v32.T == types.IntType && v35.T == types.IntType {
										if v32.I < v35.I {
											v36 = interp.Value{T: types.IntType, I: 1}
										} else {
											v36 = interp.Value{T: types.IntType, I: 0}
										}
									} else {
										v36 = m.GenBinaryOp(token.Lt, v32, v35, types.IntType, server_mc_pos[63])
									}
									if v36.Truthy() {
										v27 = interp.Value{T: types.IntType, I: 1}
									} else {
										v27 = interp.Value{T: types.IntType, I: 0}
									}
								}
								if v27.Truthy() {
									{
										m.GenStep()
										v37 := f.LocalAt(6)
										m.GenChargeAccess()
										v38 := interp.Value{T: types.CharType, I: int64(int8(v37.Data[0]))}
										v39 := f.LocalAt(1)
										v40 := m.GenLoadRaw(v39, 0, server_mc_t0, 12)
										v41 := f.LocalAt(4)
										m.GenChargeAccess()
										v42 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v41.Data[0:])))}
										v43 := interp.Value{T: v42.T, I: int64(int32(v42.I + 1))}
										m.GenStoreRaw(v41, 0, types.IntType, v43)
										v44 := core.Pointer{Addr: v40.Ptr.Addr + uint64(v42.I)*1, Prov: v40.Ptr.Prov}
										var v45 interp.Value
										if v38.T == types.CharType {
											v45 = v38
										} else if v38.T != nil && v38.T.IsInteger() {
											v45 = interp.Value{T: types.CharType, I: int64(int8(v38.I))}
										} else {
											v45 = m.GenConvert(v38, types.CharType, server_mc_pos[64])
										}
										m.GenStoreValue(v44, types.CharType, v45, server_mc_pos[64])
										_ = v45
									}
								}
							}
							{
								m.GenStep()
								v46 := f.LocalAt(5)
								m.GenStoreRaw(v46, 0, types.IntType, (interp.Value{T: types.IntType, I: 1}))
								_ = (interp.Value{T: types.IntType, I: 1})
							}
						}
					} else {
						{
							m.GenStep()
							{
								m.GenStep()
								v47 := f.LocalAt(5)
								m.GenStoreRaw(v47, 0, types.IntType, (interp.Value{T: types.IntType, I: 0}))
								_ = (interp.Value{T: types.IntType, I: 0})
							}
							{
								m.GenStep()
								v48 := f.LocalAt(4)
								m.GenChargeAccess()
								v49 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v48.Data[0:])))}
								v50 := f.LocalAt(2)
								m.GenChargeAccess()
								v51 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v50.Data[0:])))}
								var v52 interp.Value
								if v51.T == types.IntType {
									v52 = interp.Value{T: types.IntType, I: int64(int32(v51.I - 1))}
								} else {
									v52 = m.GenBinaryOp(token.Minus, v51, (interp.Value{T: types.IntType, I: 1}), types.IntType, server_mc_pos[65])
								}
								var v53 interp.Value
								if v49.T == types.IntType && v52.T == types.IntType {
									if v49.I < v52.I {
										v53 = interp.Value{T: types.IntType, I: 1}
									} else {
										v53 = interp.Value{T: types.IntType, I: 0}
									}
								} else {
									v53 = m.GenBinaryOp(token.Lt, v49, v52, types.IntType, server_mc_pos[66])
								}
								if v53.Truthy() {
									{
										m.GenStep()
										v54 := f.LocalAt(6)
										m.GenChargeAccess()
										v55 := interp.Value{T: types.CharType, I: int64(int8(v54.Data[0]))}
										v56 := f.LocalAt(1)
										v57 := m.GenLoadRaw(v56, 0, server_mc_t0, 13)
										v58 := f.LocalAt(4)
										m.GenChargeAccess()
										v59 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v58.Data[0:])))}
										v60 := interp.Value{T: v59.T, I: int64(int32(v59.I + 1))}
										m.GenStoreRaw(v58, 0, types.IntType, v60)
										v61 := core.Pointer{Addr: v57.Ptr.Addr + uint64(v59.I)*1, Prov: v57.Ptr.Prov}
										var v62 interp.Value
										if v55.T == types.CharType {
											v62 = v55
										} else if v55.T != nil && v55.T.IsInteger() {
											v62 = interp.Value{T: types.CharType, I: int64(int8(v55.I))}
										} else {
											v62 = m.GenConvert(v55, types.CharType, server_mc_pos[67])
										}
										m.GenStoreValue(v61, types.CharType, v62, server_mc_pos[67])
										_ = v62
									}
								}
							}
						}
					}
				}
				{
					m.GenStep()
					v63 := f.LocalAt(3)
					m.GenChargeAccess()
					v64 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v63.Data[0:])))}
					v65 := interp.Value{T: v64.T, I: int64(int32(v64.I + 1))}
					m.GenStoreRaw(v63, 0, types.IntType, v65)
					_ = v64
				}
			}
		}
	}
	{
		m.GenStep()
		v66 := f.LocalAt(1)
		v67 := m.GenLoadRaw(v66, 0, server_mc_t0, 14)
		v68 := f.LocalAt(4)
		m.GenChargeAccess()
		v69 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v68.Data[0:])))}
		v70 := core.Pointer{Addr: v67.Ptr.Addr + uint64(v69.I)*1, Prov: v67.Ptr.Prov}
		m.GenStoreValue(v70, types.CharType, (interp.Value{T: types.CharType, I: 0}), server_mc_pos[68])
		_ = (interp.Value{T: types.CharType, I: 0})
	}
	{
		m.GenStep()
		v71 := f.LocalAt(4)
		m.GenChargeAccess()
		v72 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v71.Data[0:])))}
		ret = v72
		if interp.GenLive {
			return
		}
	}
	return
}

func server_mc_f_mc_move_file(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 2 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "mc_move_file", len(args), 2)
	}
	f := m.GenPushFrame(server_mc_spec_mc_move_file)
	var v0 interp.Value
	if args[0].T == server_mc_t0 {
		v0 = args[0]
	} else if args[0].T != nil && args[0].T.IsPointer() {
		v0 = interp.Value{T: server_mc_t0, Ptr: args[0].Ptr}
	} else {
		v0 = m.GenConvert(args[0], server_mc_t0, pos)
	}
	m.GenStoreRaw(f.LocalAt(0), 0, server_mc_t0, v0)
	var v1 interp.Value
	if args[1].T == server_mc_t0 {
		v1 = args[1]
	} else if args[1].T != nil && args[1].T.IsPointer() {
		v1 = interp.Value{T: server_mc_t0, Ptr: args[1].Ptr}
	} else {
		v1 = m.GenConvert(args[1], server_mc_t0, pos)
	}
	m.GenStoreRaw(f.LocalAt(1), 0, server_mc_t0, v1)
	ret := m.GenExec(f, server_mc_b_mc_move_file)
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

func server_mc_b_mc_move_file(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v2 := f.LocalAt(2)
		_ = v2
		v3 := f.LocalAt(3)
		_ = v3
	}
	{
		m.GenStep()
		m.GenStep()
		v4 := m.GenArgs(3)
		v5 := f.LocalAt(0)
		v6 := m.GenLoadRaw(v5, 0, server_mc_t0, 15)
		v4[0] = v6
		v7 := f.LocalAt(2)
		v8 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v7.Base, Prov: v7}}
		v4[1] = v8
		v4[2] = (interp.Value{T: types.IntType, I: 128})
		v9 := server_mc_f_validate_path(m, v4, server_mc_pos[69])
		m.GenPutArgs(v4)
		var v10 interp.Value
		if v9.T == types.IntType {
			if v9.I < 0 {
				v10 = interp.Value{T: types.IntType, I: 1}
			} else {
				v10 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v10 = m.GenBinaryOp(token.Lt, v9, (interp.Value{T: types.IntType, I: 0}), types.IntType, server_mc_pos[70])
		}
		if v10.Truthy() {
			{
				m.GenStep()
				ret = (interp.Value{T: types.IntType, I: -1})
				if interp.GenLive {
					return
				}
			}
		}
	}
	{
		m.GenStep()
		m.GenStep()
		v11 := m.GenArgs(3)
		v12 := f.LocalAt(1)
		v13 := m.GenLoadRaw(v12, 0, server_mc_t0, 16)
		v11[0] = v13
		v14 := f.LocalAt(3)
		v15 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v14.Base, Prov: v14}}
		v11[1] = v15
		v11[2] = (interp.Value{T: types.IntType, I: 128})
		v16 := server_mc_f_validate_path(m, v11, server_mc_pos[71])
		m.GenPutArgs(v11)
		var v17 interp.Value
		if v16.T == types.IntType {
			if v16.I < 0 {
				v17 = interp.Value{T: types.IntType, I: 1}
			} else {
				v17 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v17 = m.GenBinaryOp(token.Lt, v16, (interp.Value{T: types.IntType, I: 0}), types.IntType, server_mc_pos[72])
		}
		if v17.Truthy() {
			{
				m.GenStep()
				ret = (interp.Value{T: types.IntType, I: -1})
				if interp.GenLive {
					return
				}
			}
		}
	}
	{
		m.GenStep()
		m.GenStep()
		v18 := m.GenArgs(2)
		v19 := f.LocalAt(2)
		v20 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v19.Base, Prov: v19}}
		v18[0] = v20
		v21 := f.LocalAt(3)
		v22 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v21.Base, Prov: v21}}
		v18[1] = v22
		v23 := m.GenBuiltin(6, "vfs_rename", server_mc_pos[73])(m, server_mc_pos[73], v18)
		m.GenPutArgs(v18)
		var v24 interp.Value
		if v23.T == types.IntType {
			v24 = v23
		} else if v23.T != nil && v23.T.IsInteger() {
			v24 = interp.Value{T: types.IntType, I: int64(int32(v23.I))}
		} else {
			v24 = m.GenConvert(v23, types.IntType, server_mc_pos[73])
		}
		ret = v24
		if interp.GenLive {
			return
		}
	}
	return
}

func server_mc_f_mc_mkdir(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 1 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "mc_mkdir", len(args), 1)
	}
	f := m.GenPushFrame(server_mc_spec_mc_mkdir)
	var v0 interp.Value
	if args[0].T == server_mc_t0 {
		v0 = args[0]
	} else if args[0].T != nil && args[0].T.IsPointer() {
		v0 = interp.Value{T: server_mc_t0, Ptr: args[0].Ptr}
	} else {
		v0 = m.GenConvert(args[0], server_mc_t0, pos)
	}
	m.GenStoreRaw(f.LocalAt(0), 0, server_mc_t0, v0)
	ret := m.GenExec(f, server_mc_b_mc_mkdir)
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

func server_mc_b_mc_mkdir(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v1 := f.LocalAt(1)
		_ = v1
	}
	{
		m.GenStep()
		v2 := f.LocalAt(2)
		_ = v2
	}
	{
		m.GenStep()
		v3 := f.LocalAt(3)
		_ = v3
		v4 := f.LocalAt(4)
		_ = v4
		v5 := f.LocalAt(5)
		m.GenStoreRaw(v5, 0, types.IntType, (interp.Value{T: types.IntType, I: 0}))
	}
	{
		m.GenStep()
		m.GenStep()
		v6 := m.GenArgs(3)
		v7 := f.LocalAt(0)
		v8 := m.GenLoadRaw(v7, 0, server_mc_t0, 17)
		v6[0] = v8
		v9 := f.LocalAt(1)
		v10 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v9.Base, Prov: v9}}
		v6[1] = v10
		v6[2] = (interp.Value{T: types.IntType, I: 128})
		v11 := server_mc_f_validate_path(m, v6, server_mc_pos[74])
		m.GenPutArgs(v6)
		v12 := f.LocalAt(3)
		var v13 interp.Value
		if v11.T == types.IntType {
			v13 = v11
		} else if v11.T != nil && v11.T.IsInteger() {
			v13 = interp.Value{T: types.IntType, I: int64(int32(v11.I))}
		} else {
			v13 = m.GenConvert(v11, types.IntType, server_mc_pos[75])
		}
		m.GenStoreRaw(v12, 0, types.IntType, v13)
		_ = v13
	}
	{
		m.GenStep()
		v14 := f.LocalAt(3)
		m.GenChargeAccess()
		v15 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v14.Data[0:])))}
		var v16 interp.Value
		if v15.T == types.IntType {
			if v15.I < 0 {
				v16 = interp.Value{T: types.IntType, I: 1}
			} else {
				v16 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v16 = m.GenBinaryOp(token.Lt, v15, (interp.Value{T: types.IntType, I: 0}), types.IntType, server_mc_pos[76])
		}
		if v16.Truthy() {
			{
				m.GenStep()
				ret = (interp.Value{T: types.IntType, I: -1})
				if interp.GenLive {
					return
				}
			}
		}
	}
	{
		m.GenStep()
		{
			m.GenStep()
			v17 := f.LocalAt(4)
			m.GenStoreRaw(v17, 0, types.IntType, (interp.Value{T: types.IntType, I: 0}))
			_ = (interp.Value{T: types.IntType, I: 0})
		}
		for {
			v18 := f.LocalAt(4)
			m.GenChargeAccess()
			v19 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v18.Data[0:])))}
			v20 := f.LocalAt(3)
			m.GenChargeAccess()
			v21 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v20.Data[0:])))}
			var v22 interp.Value
			if v19.T == types.IntType && v21.T == types.IntType {
				if v19.I < v21.I {
					v22 = interp.Value{T: types.IntType, I: 1}
				} else {
					v22 = interp.Value{T: types.IntType, I: 0}
				}
			} else {
				v22 = m.GenBinaryOp(token.Lt, v19, v21, types.IntType, server_mc_pos[77])
			}
			if !v22.Truthy() {
				break
			}
			m.GenStep()
			{
				m.GenStep()
				{
					m.GenStep()
					v23 := f.LocalAt(1)
					v24 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v23.Base, Prov: v23}}
					v25 := f.LocalAt(4)
					m.GenChargeAccess()
					v26 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v25.Data[0:])))}
					v27 := core.Pointer{Addr: v24.Ptr.Addr + uint64(v26.I)*1, Prov: v24.Ptr.Prov}
					v28 := m.GenLoadValue(v27, types.CharType, server_mc_pos[78], -1, 20)
					v29 := f.LocalAt(2)
					v30 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v29.Base, Prov: v29}}
					v31 := f.LocalAt(5)
					m.GenChargeAccess()
					v32 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v31.Data[0:])))}
					v33 := interp.Value{T: v32.T, I: int64(int32(v32.I + 1))}
					m.GenStoreRaw(v31, 0, types.IntType, v33)
					v34 := core.Pointer{Addr: v30.Ptr.Addr + uint64(v32.I)*1, Prov: v30.Ptr.Prov}
					var v35 interp.Value
					if v28.T == types.CharType {
						v35 = v28
					} else if v28.T != nil && v28.T.IsInteger() {
						v35 = interp.Value{T: types.CharType, I: int64(int8(v28.I))}
					} else {
						v35 = m.GenConvert(v28, types.CharType, server_mc_pos[79])
					}
					m.GenStoreValue(v34, types.CharType, v35, server_mc_pos[79])
					_ = v35
				}
				{
					m.GenStep()
					v36 := f.LocalAt(1)
					v37 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v36.Base, Prov: v36}}
					v38 := f.LocalAt(4)
					m.GenChargeAccess()
					v39 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v38.Data[0:])))}
					v40 := core.Pointer{Addr: v37.Ptr.Addr + uint64(v39.I)*1, Prov: v37.Ptr.Prov}
					v41 := m.GenLoadValue(v40, types.CharType, server_mc_pos[80], -1, 21)
					var v42 interp.Value
					if v41.T == types.CharType {
						if int64(int32(v41.I)) == 47 {
							v42 = interp.Value{T: types.IntType, I: 1}
						} else {
							v42 = interp.Value{T: types.IntType, I: 0}
						}
					} else {
						v42 = m.GenBinaryOp(token.EqEq, v41, (interp.Value{T: types.IntType, I: 47}), types.IntType, server_mc_pos[81])
					}
					if v42.Truthy() {
						{
							m.GenStep()
							v43 := f.LocalAt(2)
							v44 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v43.Base, Prov: v43}}
							v45 := f.LocalAt(5)
							m.GenChargeAccess()
							v46 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v45.Data[0:])))}
							v47 := interp.Value{T: v46.T, I: int64(int32(v46.I + 1))}
							m.GenStoreRaw(v45, 0, types.IntType, v47)
							v48 := core.Pointer{Addr: v44.Ptr.Addr + uint64(v46.I)*1, Prov: v44.Ptr.Prov}
							m.GenStoreValue(v48, types.CharType, (interp.Value{T: types.CharType, I: 32}), server_mc_pos[82])
							_ = (interp.Value{T: types.CharType, I: 32})
						}
					}
				}
			}
			v49 := f.LocalAt(4)
			m.GenChargeAccess()
			v50 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v49.Data[0:])))}
			v51 := interp.Value{T: v50.T, I: int64(int32(v50.I + 1))}
			m.GenStoreRaw(v49, 0, types.IntType, v51)
			_ = v50
		}
	}
	{
		m.GenStep()
		v52 := f.LocalAt(2)
		v53 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v52.Base, Prov: v52}}
		v54 := f.LocalAt(5)
		m.GenChargeAccess()
		v55 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v54.Data[0:])))}
		v56 := core.Pointer{Addr: v53.Ptr.Addr + uint64(v55.I)*1, Prov: v53.Ptr.Prov}
		m.GenStoreValue(v56, types.CharType, (interp.Value{T: types.CharType, I: 0}), server_mc_pos[83])
		_ = (interp.Value{T: types.CharType, I: 0})
	}
	{
		m.GenStep()
		m.GenStep()
		v57 := m.GenArgs(4)
		v58 := m.GenGlobal(0)
		v59 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v58.Base, Prov: v58}}
		v57[0] = v59
		v57[1] = (interp.Value{T: types.ULongType, I: 256})
		v60 := m.GenLiteral(3)
		v61 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v60.Base, Prov: v60}}
		v57[2] = v61
		v62 := f.LocalAt(2)
		v63 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v62.Base, Prov: v62}}
		v57[3] = v63
		v64 := m.GenBuiltin(3, "snprintf", server_mc_pos[84])(m, server_mc_pos[84], v57)
		m.GenPutArgs(v57)
		var v65 interp.Value
		if v64.T == types.IntType {
			v65 = v64
		} else if v64.T != nil && v64.T.IsInteger() {
			v65 = interp.Value{T: types.IntType, I: int64(int32(v64.I))}
		} else {
			v65 = m.GenConvert(v64, types.IntType, server_mc_pos[84])
		}
		_ = v65
	}
	{
		m.GenStep()
		m.GenStep()
		v66 := m.GenArgs(1)
		v67 := f.LocalAt(1)
		v68 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v67.Base, Prov: v67}}
		v66[0] = v68
		v69 := m.GenBuiltin(7, "vfs_mkdir", server_mc_pos[85])(m, server_mc_pos[85], v66)
		m.GenPutArgs(v66)
		var v70 interp.Value
		if v69.T == types.IntType {
			v70 = v69
		} else if v69.T != nil && v69.T.IsInteger() {
			v70 = interp.Value{T: types.IntType, I: int64(int32(v69.I))}
		} else {
			v70 = m.GenConvert(v69, types.IntType, server_mc_pos[85])
		}
		ret = v70
		if interp.GenLive {
			return
		}
	}
	return
}

func server_mc_f_mc_delete_file(m *interp.Machine, args []interp.Value, pos token.Pos) interp.Value {
	m.GenStep()
	if len(args) != 1 {
		m.GenFailf(pos, "call of %q with %d args (want %d)", "mc_delete_file", len(args), 1)
	}
	f := m.GenPushFrame(server_mc_spec_mc_delete_file)
	var v0 interp.Value
	if args[0].T == server_mc_t0 {
		v0 = args[0]
	} else if args[0].T != nil && args[0].T.IsPointer() {
		v0 = interp.Value{T: server_mc_t0, Ptr: args[0].Ptr}
	} else {
		v0 = m.GenConvert(args[0], server_mc_t0, pos)
	}
	m.GenStoreRaw(f.LocalAt(0), 0, server_mc_t0, v0)
	ret := m.GenExec(f, server_mc_b_mc_delete_file)
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

func server_mc_b_mc_delete_file(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		m.GenStep()
		v1 := m.GenArgs(1)
		v2 := f.LocalAt(0)
		v3 := m.GenLoadRaw(v2, 0, server_mc_t0, 18)
		v1[0] = v3
		v4 := m.GenBuiltin(8, "vfs_unlink", server_mc_pos[86])(m, server_mc_pos[86], v1)
		m.GenPutArgs(v1)
		var v5 interp.Value
		if v4.T == types.IntType {
			v5 = v4
		} else if v4.T != nil && v4.T.IsInteger() {
			v5 = interp.Value{T: types.IntType, I: int64(int32(v4.I))}
		} else {
			v5 = m.GenConvert(v4, types.IntType, server_mc_pos[86])
		}
		ret = v5
		if interp.GenLive {
			return
		}
	}
	return
}
