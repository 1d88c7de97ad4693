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
	{File: "mc.c", Line: 25, Col: 2},
	{File: "mc.c", Line: 28, Col: 9},
	{File: "mc.c", Line: 28, Col: 16},
	{File: "mc.c", Line: 29, Col: 33},
	{File: "mc.c", Line: 29, Col: 23},
	{File: "mc.c", Line: 29, Col: 6},
	{File: "mc.c", Line: 30, Col: 10},
	{File: "mc.c", Line: 32, Col: 9},
	{File: "mc.c", Line: 33, Col: 9},
	{File: "mc.c", Line: 34, Col: 17},
	{File: "mc.c", Line: 34, Col: 23},
	{File: "mc.c", Line: 37, Col: 10},
	{File: "mc.c", Line: 46, Col: 2},
	{File: "mc.c", Line: 47, Col: 15},
	{File: "mc.c", Line: 47, Col: 10},
	{File: "mc.c", Line: 47, Col: 20},
	{File: "mc.c", Line: 49, Col: 10},
	{File: "mc.c", Line: 51, Col: 11},
	{File: "mc.c", Line: 51, Col: 24},
	{File: "mc.c", Line: 51, Col: 28},
	{File: "mc.c", Line: 52, Col: 11},
	{File: "mc.c", Line: 52, Col: 30},
	{File: "mc.c", Line: 52, Col: 9},
	{File: "mc.c", Line: 53, Col: 19},
	{File: "mc.c", Line: 53, Col: 13},
	{File: "mc.c", Line: 56, Col: 8},
	{File: "mc.c", Line: 58, Col: 9},
	{File: "mc.c", Line: 65, Col: 2},
	{File: "mc.c", Line: 66, Col: 12},
	{File: "mc.c", Line: 66, Col: 16},
	{File: "mc.c", Line: 67, Col: 5},
	{File: "mc.c", Line: 68, Col: 13},
	{File: "mc.c", Line: 68, Col: 17},
	{File: "mc.c", Line: 68, Col: 31},
	{File: "mc.c", Line: 68, Col: 35},
	{File: "mc.c", Line: 69, Col: 12},
	{File: "mc.c", Line: 69, Col: 32},
	{File: "mc.c", Line: 69, Col: 10},
	{File: "mc.c", Line: 70, Col: 20},
	{File: "mc.c", Line: 70, Col: 15},
	{File: "mc.c", Line: 73, Col: 10},
	{File: "mc.c", Line: 73, Col: 14},
	{File: "mc.c", Line: 75, Col: 11},
	{File: "mc.c", Line: 76, Col: 22},
	{File: "mc.c", Line: 76, Col: 6},
	{File: "mc.c", Line: 77, Col: 10},
	{File: "mc.c", Line: 88, Col: 2},
	{File: "mc.c", Line: 89, Col: 2},
	{File: "mc.c", Line: 90, Col: 13},
	{File: "mc.c", Line: 90, Col: 11},
	{File: "mc.c", Line: 91, Col: 8},
	{File: "mc.c", Line: 92, Col: 13},
	{File: "mc.c", Line: 93, Col: 12},
	{File: "mc.c", Line: 93, Col: 5},
	{File: "mc.c", Line: 94, Col: 11},
	{File: "mc.c", Line: 94, Col: 9},
	{File: "mc.c", Line: 95, Col: 6},
	{File: "mc.c", Line: 96, Col: 21},
	{File: "mc.c", Line: 96, Col: 5},
	{File: "mc.c", Line: 97, Col: 9},
	{File: "mc.c", Line: 99, Col: 10},
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
	{File: "mc.c", Line: 114, Col: 2},
	{File: "mc.c", Line: 115, Col: 2},
	{File: "mc.c", Line: 116, Col: 13},
	{File: "mc.c", Line: 116, Col: 17},
	{File: "mc.c", Line: 117, Col: 16},
	{File: "mc.c", Line: 117, Col: 3},
	{File: "mc.c", Line: 118, Col: 9},
	{File: "mc.c", Line: 120, Col: 9},
	{File: "mc.c", Line: 121, Col: 34},
	{File: "mc.c", Line: 121, Col: 25},
	{File: "mc.c", Line: 122, Col: 14},
	{File: "mc.c", Line: 123, Col: 15},
	{File: "mc.c", Line: 125, Col: 15},
	{File: "mc.c", Line: 126, Col: 19},
	{File: "mc.c", Line: 126, Col: 10},
	{File: "mc.c", Line: 127, Col: 14},
	{File: "mc.c", Line: 131, Col: 9},
	{File: "mc.c", Line: 138, Col: 33},
	{File: "mc.c", Line: 138, Col: 19},
	{File: "mc.c", Line: 138, Col: 55},
	{File: "mc.c", Line: 140, Col: 29},
	{File: "mc.c", Line: 140, Col: 19},
	{File: "mc.c", Line: 140, Col: 49},
	{File: "mc.c", Line: 142, Col: 19},
	{File: "mc.c", Line: 149, Col: 2},
	{File: "mc.c", Line: 150, Col: 33},
	{File: "mc.c", Line: 150, Col: 19},
	{File: "mc.c", Line: 150, Col: 4},
	{File: "mc.c", Line: 151, Col: 8},
	{File: "mc.c", Line: 154, Col: 9},
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

var server_mc_locals_mc_process_tgz_links = []mem.LocalSpec{
	{Name: "nlinks (mc_process_tgz_links)", Off: 0, Size: 4},
	{Name: "i (mc_process_tgz_links)", Off: 4, Size: 4},
	{Name: "rc (mc_process_tgz_links)", Off: 8, Size: 4},
	{Name: "dangling (mc_process_tgz_links)", Off: 12, Size: 4},
	{Name: "name (mc_process_tgz_links)", Off: 16, Size: 64},
	{Name: "buf (mc_process_tgz_links)", Off: 80, Size: 128},
}
var server_mc_locals_mc_config_line = []mem.LocalSpec{
	{Name: "line (mc_config_line)", Off: 0, Size: 8},
	{Name: "len (mc_config_line)", Off: 8, Size: 4},
	{Name: "key (mc_config_line)", Off: 12, Size: 64},
	{Name: "i (mc_config_line)", Off: 76, Size: 4},
	{Name: "k (mc_config_line)", Off: 80, Size: 4},
}
var server_mc_locals_mc_load_config = []mem.LocalSpec{
	{Name: "cfg (mc_load_config)", Off: 0, Size: 8},
	{Name: "line (mc_load_config)", Off: 8, Size: 128},
	{Name: "i (mc_load_config)", Off: 136, Size: 4},
	{Name: "k (mc_load_config)", Off: 140, Size: 4},
	{Name: "rc (mc_load_config)", Off: 144, Size: 4},
	{Name: "ok (mc_load_config)", Off: 148, Size: 4},
}
var server_mc_locals_mc_copy_file = []mem.LocalSpec{
	{Name: "path (mc_copy_file)", Off: 0, Size: 8},
	{Name: "size (mc_copy_file)", Off: 8, Size: 4},
	{Name: "chunk (mc_copy_file)", Off: 12, Size: 4096},
	{Name: "off (mc_copy_file)", Off: 4108, Size: 4},
	{Name: "n (mc_copy_file)", Off: 4112, Size: 4},
	{Name: "i (mc_copy_file)", Off: 4116, Size: 4},
	{Name: "sum (mc_copy_file)", Off: 4120, Size: 4},
}
var server_mc_locals_validate_path = []mem.LocalSpec{
	{Name: "path (validate_path)", Off: 0, Size: 8},
	{Name: "out (validate_path)", Off: 8, Size: 8},
	{Name: "outlen (validate_path)", Off: 16, Size: 4},
	{Name: "i (validate_path)", Off: 20, Size: 4},
	{Name: "o (validate_path)", Off: 24, Size: 4},
	{Name: "prev_slash (validate_path)", Off: 28, Size: 4},
	{Name: "c (validate_path)", Off: 32, Size: 1},
}
var server_mc_locals_mc_move_file = []mem.LocalSpec{
	{Name: "from (mc_move_file)", Off: 0, Size: 8},
	{Name: "to (mc_move_file)", Off: 8, Size: 8},
	{Name: "cfrom (mc_move_file)", Off: 16, Size: 128},
	{Name: "cto (mc_move_file)", Off: 144, Size: 128},
}
var server_mc_locals_mc_mkdir = []mem.LocalSpec{
	{Name: "path (mc_mkdir)", Off: 0, Size: 8},
	{Name: "cpath (mc_mkdir)", Off: 8, Size: 128},
	{Name: "display (mc_mkdir)", Off: 136, Size: 256},
	{Name: "n (mc_mkdir)", Off: 392, Size: 4},
	{Name: "i (mc_mkdir)", Off: 396, Size: 4},
	{Name: "o (mc_mkdir)", Off: 400, Size: 4},
}
var server_mc_locals_mc_delete_file = []mem.LocalSpec{
	{Name: "path (mc_delete_file)", Off: 0, Size: 8},
}

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
	f := m.GenPushFrame("canary:mc_process_tgz_links", 208, server_mc_locals_mc_process_tgz_links)
	v0 := m.GenConvert(args[0], types.IntType, pos)
	m.GenStoreRaw(f.LocalAt(5), 0, types.IntType, v0)
	ret := m.GenExec(f, server_mc_b_mc_process_tgz_links)
	m.GenPopFrame(f)
	if ret.T == nil {
		return interp.Value{T: types.IntType}
	}
	return m.GenConvert(ret, types.IntType, pos)
}

func server_mc_b_mc_process_tgz_links(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v1 := f.LocalAt(4)
		_ = v1
		v2 := f.LocalAt(3)
		_ = v2
		v3 := f.LocalAt(2)
		v4 := interp.Value{T: types.IntType, I: 0}
		var v5 interp.Value
		if v4.T == types.IntType {
			v5 = v4
		} else {
			v5 = m.GenConvert(v4, types.IntType, server_mc_pos[0])
		}
		m.GenStoreRaw(v3, 0, types.IntType, v5)
	}
	{
		m.GenStep()
		v6 := f.LocalAt(1)
		_ = v6
	}
	{
		m.GenStep()
		v7 := f.LocalAt(0)
		_ = v7
	}
	{
		m.GenStep()
		{
			m.GenStep()
			v8 := interp.Value{T: types.IntType, I: 0}
			v9 := f.LocalAt(4)
			var v10 interp.Value
			if v8.T == types.IntType {
				v10 = v8
			} else {
				v10 = m.GenConvert(v8, types.IntType, server_mc_pos[1])
			}
			m.GenStoreRaw(v9, 0, types.IntType, v10)
			_ = v10
		}
		for {
			v11 := f.LocalAt(4)
			m.GenChargeAccess()
			v12 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v11.Data[0:])))}
			v13 := f.LocalAt(5)
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
				v15 = m.GenBinaryOp(token.Lt, v12, v14, types.IntType, server_mc_pos[2])
			}
			if !v15.Truthy() {
				break
			}
			m.GenStep()
			{
				m.GenStep()
				{
					m.GenStep()
					m.GenStep()
					v16 := m.GenArgs(3)
					v17 := f.LocalAt(4)
					m.GenChargeAccess()
					v18 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v17.Data[0:])))}
					v16[0] = v18
					v19 := f.LocalAt(1)
					v20 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v19.Base, Prov: v19}}
					v16[1] = v20
					v21 := interp.Value{T: types.ULongType, I: 64}
					var v22 interp.Value
					if v21.T == types.IntType {
						v22 = v21
					} else {
						v22 = m.GenConvert(v21, types.IntType, server_mc_pos[3])
					}
					v16[2] = v22
					v23 := m.GenBuiltin(0, "tgz_link_target", server_mc_pos[4])(m, server_mc_pos[4], v16)
					m.GenPutArgs(v16)
					var v24 interp.Value
					if v23.T == types.IntType {
						v24 = v23
					} else {
						v24 = m.GenConvert(v23, types.IntType, server_mc_pos[4])
					}
					v25 := f.LocalAt(3)
					var v26 interp.Value
					if v24.T == types.IntType {
						v26 = v24
					} else {
						v26 = m.GenConvert(v24, types.IntType, server_mc_pos[5])
					}
					m.GenStoreRaw(v25, 0, types.IntType, v26)
					_ = v26
				}
				{
					m.GenStep()
					v27 := f.LocalAt(3)
					m.GenChargeAccess()
					v28 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v27.Data[0:])))}
					v29 := interp.Value{T: types.IntType, I: 0}
					var v30 interp.Value
					if v28.T == types.IntType && v29.T == types.IntType {
						if v28.I != v29.I {
							v30 = interp.Value{T: types.IntType, I: 1}
						} else {
							v30 = interp.Value{T: types.IntType, I: 0}
						}
					} else {
						v30 = m.GenBinaryOp(token.NotEq, v28, v29, types.IntType, server_mc_pos[6])
					}
					if v30.Truthy() {
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
					v31 := m.GenArgs(2)
					v32 := f.LocalAt(0)
					v33 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v32.Base, Prov: v32}}
					v31[0] = v33
					v34 := m.GenLiteral(0)
					v35 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v34.Base, Prov: v34}}
					v31[1] = v35
					v36 := m.GenBuiltin(1, "strcat", server_mc_pos[7])(m, server_mc_pos[7], v31)
					m.GenPutArgs(v31)
					var v37 interp.Value
					if v36.T == server_mc_t0 {
						v37 = v36
					} else {
						v37 = m.GenConvert(v36, server_mc_t0, server_mc_pos[7])
					}
					_ = v37
				}
				{
					m.GenStep()
					m.GenStep()
					v38 := m.GenArgs(2)
					v39 := f.LocalAt(0)
					v40 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v39.Base, Prov: v39}}
					v38[0] = v40
					v41 := f.LocalAt(1)
					v42 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v41.Base, Prov: v41}}
					v38[1] = v42
					v43 := m.GenBuiltin(1, "strcat", server_mc_pos[8])(m, server_mc_pos[8], v38)
					m.GenPutArgs(v38)
					var v44 interp.Value
					if v43.T == server_mc_t0 {
						v44 = v43
					} else {
						v44 = m.GenConvert(v43, server_mc_t0, server_mc_pos[8])
					}
					_ = v44
				}
				{
					m.GenStep()
					m.GenStep()
					v45 := m.GenArgs(1)
					v46 := f.LocalAt(0)
					v47 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v46.Base, Prov: v46}}
					v45[0] = v47
					v48 := m.GenBuiltin(2, "vfs_lookup", server_mc_pos[9])(m, server_mc_pos[9], v45)
					m.GenPutArgs(v45)
					var v49 interp.Value
					if v48.T == types.IntType {
						v49 = v48
					} else {
						v49 = m.GenConvert(v48, types.IntType, server_mc_pos[9])
					}
					v50 := interp.Value{T: types.IntType, I: 0}
					var v51 interp.Value
					if v49.T == types.IntType && v50.T == types.IntType {
						if v49.I != v50.I {
							v51 = interp.Value{T: types.IntType, I: 1}
						} else {
							v51 = interp.Value{T: types.IntType, I: 0}
						}
					} else {
						v51 = m.GenBinaryOp(token.NotEq, v49, v50, types.IntType, server_mc_pos[10])
					}
					if v51.Truthy() {
						{
							m.GenStep()
							v52 := f.LocalAt(2)
							m.GenChargeAccess()
							v53 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v52.Data[0:])))}
							v54 := interp.Value{T: v53.T, I: int64(int32(v53.I + 1))}
							m.GenStoreRaw(v52, 0, types.IntType, v54)
							_ = v53
						}
					}
				}
			}
		c0_cont:
			;
			v55 := f.LocalAt(4)
			m.GenChargeAccess()
			v56 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v55.Data[0:])))}
			v57 := interp.Value{T: v56.T, I: int64(int32(v56.I + 1))}
			m.GenStoreRaw(v55, 0, types.IntType, v57)
			_ = v56
		}
	}
	{
		m.GenStep()
		m.GenStep()
		v58 := m.GenArgs(5)
		v59 := m.GenGlobal(0)
		v60 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v59.Base, Prov: v59}}
		v58[0] = v60
		v61 := interp.Value{T: types.ULongType, I: 256}
		v58[1] = v61
		v62 := m.GenLiteral(1)
		v63 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v62.Base, Prov: v62}}
		v58[2] = v63
		v64 := f.LocalAt(5)
		m.GenChargeAccess()
		v65 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v64.Data[0:])))}
		v58[3] = v65
		v66 := f.LocalAt(2)
		m.GenChargeAccess()
		v67 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v66.Data[0:])))}
		v58[4] = v67
		v68 := m.GenBuiltin(3, "snprintf", server_mc_pos[11])(m, server_mc_pos[11], v58)
		m.GenPutArgs(v58)
		var v69 interp.Value
		if v68.T == types.IntType {
			v69 = v68
		} else {
			v69 = m.GenConvert(v68, types.IntType, server_mc_pos[11])
		}
		_ = v69
	}
	{
		m.GenStep()
		v70 := f.LocalAt(2)
		m.GenChargeAccess()
		v71 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v70.Data[0:])))}
		ret = v71
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
	f := m.GenPushFrame("canary:mc_config_line", 84, server_mc_locals_mc_config_line)
	v0 := m.GenConvert(args[0], server_mc_t0, pos)
	m.GenStoreRaw(f.LocalAt(4), 0, server_mc_t0, v0)
	v1 := m.GenConvert(args[1], types.IntType, pos)
	m.GenStoreRaw(f.LocalAt(3), 0, types.IntType, v1)
	ret := m.GenExec(f, server_mc_b_mc_config_line)
	m.GenPopFrame(f)
	if ret.T == nil {
		return interp.Value{T: types.IntType}
	}
	return m.GenConvert(ret, types.IntType, pos)
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
		v3 := f.LocalAt(1)
		v4 := interp.Value{T: types.IntType, I: 0}
		var v5 interp.Value
		if v4.T == types.IntType {
			v5 = v4
		} else {
			v5 = m.GenConvert(v4, types.IntType, server_mc_pos[12])
		}
		m.GenStoreRaw(v3, 0, types.IntType, v5)
		v6 := f.LocalAt(0)
		v7 := interp.Value{T: types.IntType, I: 0}
		var v8 interp.Value
		if v7.T == types.IntType {
			v8 = v7
		} else {
			v8 = m.GenConvert(v7, types.IntType, server_mc_pos[12])
		}
		m.GenStoreRaw(v6, 0, types.IntType, v8)
	}
	{
		m.GenStep()
		v9 := f.LocalAt(4)
		v10 := m.GenLoadRaw(v9, 0, server_mc_t0, 0)
		v11 := f.LocalAt(3)
		m.GenChargeAccess()
		v12 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v11.Data[0:])))}
		v13 := interp.Value{T: types.IntType, I: 1}
		var v14 interp.Value
		if v12.T == types.IntType && v13.T == types.IntType {
			v14 = interp.Value{T: types.IntType, I: int64(int32(v12.I - v13.I))}
		} else {
			v14 = m.GenBinaryOp(token.Minus, v12, v13, types.IntType, server_mc_pos[13])
		}
		v15 := core.Pointer{Addr: v10.Ptr.Addr + uint64(v14.I)*1, Prov: v10.Ptr.Prov}
		v16 := m.GenLoadValue(v15, types.CharType, server_mc_pos[14], -1, 0)
		v17 := interp.Value{T: types.IntType, I: 92}
		var v18 interp.Value
		v18 = m.GenBinaryOp(token.EqEq, v16, v17, types.IntType, server_mc_pos[15])
		if v18.Truthy() {
			{
				m.GenStep()
				v19 := interp.Value{T: types.IntType, I: 2}
				v20 := interp.Value{T: types.IntType, I: int64(int32(-v19.I))}
				ret = v20
				if interp.GenLive {
					return
				}
			}
		}
	}
	{
		m.GenStep()
		v21 := f.LocalAt(3)
		m.GenChargeAccess()
		v22 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v21.Data[0:])))}
		v23 := interp.Value{T: types.IntType, I: 0}
		var v24 interp.Value
		if v22.T == types.IntType && v23.T == types.IntType {
			if v22.I == v23.I {
				v24 = interp.Value{T: types.IntType, I: 1}
			} else {
				v24 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v24 = m.GenBinaryOp(token.EqEq, v22, v23, types.IntType, server_mc_pos[16])
		}
		if v24.Truthy() {
			{
				m.GenStep()
				v25 := interp.Value{T: types.IntType, I: 1}
				v26 := interp.Value{T: types.IntType, I: int64(int32(-v25.I))}
				ret = v26
				if interp.GenLive {
					return
				}
			}
		}
	}
	{
		m.GenStep()
		for {
			var v27 interp.Value
			v28 := f.LocalAt(1)
			m.GenChargeAccess()
			v29 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v28.Data[0:])))}
			v30 := f.LocalAt(3)
			m.GenChargeAccess()
			v31 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v30.Data[0:])))}
			var v32 interp.Value
			if v29.T == types.IntType && v31.T == types.IntType {
				if v29.I < v31.I {
					v32 = interp.Value{T: types.IntType, I: 1}
				} else {
					v32 = interp.Value{T: types.IntType, I: 0}
				}
			} else {
				v32 = m.GenBinaryOp(token.Lt, v29, v31, types.IntType, server_mc_pos[17])
			}
			if !v32.Truthy() {
				v27 = interp.Value{T: types.IntType, I: 0}
			} else {
				v33 := f.LocalAt(4)
				v34 := m.GenLoadRaw(v33, 0, server_mc_t0, 1)
				v35 := f.LocalAt(1)
				m.GenChargeAccess()
				v36 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v35.Data[0:])))}
				v37 := core.Pointer{Addr: v34.Ptr.Addr + uint64(v36.I)*1, Prov: v34.Ptr.Prov}
				v38 := m.GenLoadValue(v37, types.CharType, server_mc_pos[18], -1, 1)
				v39 := interp.Value{T: types.IntType, I: 61}
				var v40 interp.Value
				v40 = m.GenBinaryOp(token.NotEq, v38, v39, types.IntType, server_mc_pos[19])
				if v40.Truthy() {
					v27 = interp.Value{T: types.IntType, I: 1}
				} else {
					v27 = interp.Value{T: types.IntType, I: 0}
				}
			}
			if !v27.Truthy() {
				break
			}
			m.GenStep()
			{
				m.GenStep()
				{
					m.GenStep()
					v41 := f.LocalAt(0)
					m.GenChargeAccess()
					v42 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v41.Data[0:])))}
					v43 := interp.Value{T: types.ULongType, I: 64}
					var v44 interp.Value
					if v43.T == types.IntType {
						v44 = v43
					} else {
						v44 = m.GenConvert(v43, types.IntType, server_mc_pos[20])
					}
					v45 := interp.Value{T: types.IntType, I: 1}
					var v46 interp.Value
					if v44.T == types.IntType && v45.T == types.IntType {
						v46 = interp.Value{T: types.IntType, I: int64(int32(v44.I - v45.I))}
					} else {
						v46 = m.GenBinaryOp(token.Minus, v44, v45, types.IntType, server_mc_pos[21])
					}
					var v47 interp.Value
					if v42.T == types.IntType && v46.T == types.IntType {
						if v42.I < v46.I {
							v47 = interp.Value{T: types.IntType, I: 1}
						} else {
							v47 = interp.Value{T: types.IntType, I: 0}
						}
					} else {
						v47 = m.GenBinaryOp(token.Lt, v42, v46, types.IntType, server_mc_pos[22])
					}
					if v47.Truthy() {
						{
							m.GenStep()
							v48 := f.LocalAt(4)
							v49 := m.GenLoadRaw(v48, 0, server_mc_t0, 2)
							v50 := f.LocalAt(1)
							m.GenChargeAccess()
							v51 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v50.Data[0:])))}
							v52 := core.Pointer{Addr: v49.Ptr.Addr + uint64(v51.I)*1, Prov: v49.Ptr.Prov}
							v53 := m.GenLoadValue(v52, types.CharType, server_mc_pos[23], -1, 3)
							v54 := f.LocalAt(2)
							v55 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v54.Base, Prov: v54}}
							v56 := f.LocalAt(0)
							m.GenChargeAccess()
							v57 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v56.Data[0:])))}
							v58 := interp.Value{T: v57.T, I: int64(int32(v57.I + 1))}
							m.GenStoreRaw(v56, 0, types.IntType, v58)
							v59 := core.Pointer{Addr: v55.Ptr.Addr + uint64(v57.I)*1, Prov: v55.Ptr.Prov}
							var v60 interp.Value
							if v53.T == types.CharType {
								v60 = v53
							} else {
								v60 = m.GenConvert(v53, types.CharType, server_mc_pos[24])
							}
							m.GenStoreValue(v59, types.CharType, v60, server_mc_pos[24])
							_ = v60
						}
					}
				}
				{
					m.GenStep()
					v61 := f.LocalAt(1)
					m.GenChargeAccess()
					v62 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v61.Data[0:])))}
					v63 := interp.Value{T: v62.T, I: int64(int32(v62.I + 1))}
					m.GenStoreRaw(v61, 0, types.IntType, v63)
					_ = v62
				}
			}
		}
	}
	{
		m.GenStep()
		v64 := f.LocalAt(1)
		m.GenChargeAccess()
		v65 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v64.Data[0:])))}
		v66 := f.LocalAt(3)
		m.GenChargeAccess()
		v67 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v66.Data[0:])))}
		var v68 interp.Value
		if v65.T == types.IntType && v67.T == types.IntType {
			if v65.I >= v67.I {
				v68 = interp.Value{T: types.IntType, I: 1}
			} else {
				v68 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v68 = m.GenBinaryOp(token.Ge, v65, v67, types.IntType, server_mc_pos[25])
		}
		if v68.Truthy() {
			{
				m.GenStep()
				v69 := interp.Value{T: types.IntType, I: 1}
				v70 := interp.Value{T: types.IntType, I: int64(int32(-v69.I))}
				ret = v70
				if interp.GenLive {
					return
				}
			}
		}
	}
	{
		m.GenStep()
		v71 := interp.Value{T: types.IntType, I: 0}
		v72 := f.LocalAt(2)
		v73 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v72.Base, Prov: v72}}
		v74 := f.LocalAt(0)
		m.GenChargeAccess()
		v75 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v74.Data[0:])))}
		v76 := core.Pointer{Addr: v73.Ptr.Addr + uint64(v75.I)*1, Prov: v73.Ptr.Prov}
		var v77 interp.Value
		if v71.T == types.CharType {
			v77 = v71
		} else {
			v77 = m.GenConvert(v71, types.CharType, server_mc_pos[26])
		}
		m.GenStoreValue(v76, types.CharType, v77, server_mc_pos[26])
		_ = v77
	}
	{
		m.GenStep()
		v78 := interp.Value{T: types.IntType, I: 0}
		ret = v78
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
	f := m.GenPushFrame("canary:mc_load_config", 152, server_mc_locals_mc_load_config)
	v0 := m.GenConvert(args[0], server_mc_t0, pos)
	m.GenStoreRaw(f.LocalAt(5), 0, server_mc_t0, v0)
	ret := m.GenExec(f, server_mc_b_mc_load_config)
	m.GenPopFrame(f)
	if ret.T == nil {
		return interp.Value{T: types.IntType}
	}
	return m.GenConvert(ret, types.IntType, pos)
}

func server_mc_b_mc_load_config(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v1 := f.LocalAt(4)
		_ = v1
	}
	{
		m.GenStep()
		v2 := f.LocalAt(3)
		v3 := interp.Value{T: types.IntType, I: 0}
		var v4 interp.Value
		if v3.T == types.IntType {
			v4 = v3
		} else {
			v4 = m.GenConvert(v3, types.IntType, server_mc_pos[27])
		}
		m.GenStoreRaw(v2, 0, types.IntType, v4)
		v5 := f.LocalAt(2)
		_ = v5
		v6 := f.LocalAt(1)
		_ = v6
		v7 := f.LocalAt(0)
		v8 := interp.Value{T: types.IntType, I: 0}
		var v9 interp.Value
		if v8.T == types.IntType {
			v9 = v8
		} else {
			v9 = m.GenConvert(v8, types.IntType, server_mc_pos[27])
		}
		m.GenStoreRaw(v7, 0, types.IntType, v9)
	}
	{
		m.GenStep()
		for {
			v10 := f.LocalAt(5)
			v11 := m.GenLoadRaw(v10, 0, server_mc_t0, 3)
			v12 := f.LocalAt(3)
			m.GenChargeAccess()
			v13 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v12.Data[0:])))}
			v14 := core.Pointer{Addr: v11.Ptr.Addr + uint64(v13.I)*1, Prov: v11.Ptr.Prov}
			v15 := m.GenLoadValue(v14, types.CharType, server_mc_pos[28], -1, 5)
			v16 := interp.Value{T: types.IntType, I: 0}
			var v17 interp.Value
			v17 = m.GenBinaryOp(token.NotEq, v15, v16, types.IntType, server_mc_pos[29])
			if !v17.Truthy() {
				break
			}
			m.GenStep()
			{
				m.GenStep()
				{
					m.GenStep()
					v18 := interp.Value{T: types.IntType, I: 0}
					v19 := f.LocalAt(2)
					var v20 interp.Value
					if v18.T == types.IntType {
						v20 = v18
					} else {
						v20 = m.GenConvert(v18, types.IntType, server_mc_pos[30])
					}
					m.GenStoreRaw(v19, 0, types.IntType, v20)
					_ = v20
				}
				{
					m.GenStep()
					for {
						var v21 interp.Value
						v22 := f.LocalAt(5)
						v23 := m.GenLoadRaw(v22, 0, server_mc_t0, 4)
						v24 := f.LocalAt(3)
						m.GenChargeAccess()
						v25 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v24.Data[0:])))}
						v26 := core.Pointer{Addr: v23.Ptr.Addr + uint64(v25.I)*1, Prov: v23.Ptr.Prov}
						v27 := m.GenLoadValue(v26, types.CharType, server_mc_pos[31], -1, 6)
						v28 := interp.Value{T: types.IntType, I: 0}
						var v29 interp.Value
						v29 = m.GenBinaryOp(token.NotEq, v27, v28, types.IntType, server_mc_pos[32])
						if !v29.Truthy() {
							v21 = interp.Value{T: types.IntType, I: 0}
						} else {
							v30 := f.LocalAt(5)
							v31 := m.GenLoadRaw(v30, 0, server_mc_t0, 5)
							v32 := f.LocalAt(3)
							m.GenChargeAccess()
							v33 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v32.Data[0:])))}
							v34 := core.Pointer{Addr: v31.Ptr.Addr + uint64(v33.I)*1, Prov: v31.Ptr.Prov}
							v35 := m.GenLoadValue(v34, types.CharType, server_mc_pos[33], -1, 7)
							v36 := interp.Value{T: types.IntType, I: 10}
							var v37 interp.Value
							v37 = m.GenBinaryOp(token.NotEq, v35, v36, types.IntType, server_mc_pos[34])
							if v37.Truthy() {
								v21 = interp.Value{T: types.IntType, I: 1}
							} else {
								v21 = interp.Value{T: types.IntType, I: 0}
							}
						}
						if !v21.Truthy() {
							break
						}
						m.GenStep()
						{
							m.GenStep()
							{
								m.GenStep()
								v38 := f.LocalAt(2)
								m.GenChargeAccess()
								v39 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v38.Data[0:])))}
								v40 := interp.Value{T: types.ULongType, I: 128}
								var v41 interp.Value
								if v40.T == types.IntType {
									v41 = v40
								} else {
									v41 = m.GenConvert(v40, types.IntType, server_mc_pos[35])
								}
								v42 := interp.Value{T: types.IntType, I: 1}
								var v43 interp.Value
								if v41.T == types.IntType && v42.T == types.IntType {
									v43 = interp.Value{T: types.IntType, I: int64(int32(v41.I - v42.I))}
								} else {
									v43 = m.GenBinaryOp(token.Minus, v41, v42, types.IntType, server_mc_pos[36])
								}
								var v44 interp.Value
								if v39.T == types.IntType && v43.T == types.IntType {
									if v39.I < v43.I {
										v44 = interp.Value{T: types.IntType, I: 1}
									} else {
										v44 = interp.Value{T: types.IntType, I: 0}
									}
								} else {
									v44 = m.GenBinaryOp(token.Lt, v39, v43, types.IntType, server_mc_pos[37])
								}
								if v44.Truthy() {
									{
										m.GenStep()
										v45 := f.LocalAt(5)
										v46 := m.GenLoadRaw(v45, 0, server_mc_t0, 6)
										v47 := f.LocalAt(3)
										m.GenChargeAccess()
										v48 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v47.Data[0:])))}
										v49 := core.Pointer{Addr: v46.Ptr.Addr + uint64(v48.I)*1, Prov: v46.Ptr.Prov}
										v50 := m.GenLoadValue(v49, types.CharType, server_mc_pos[38], -1, 9)
										v51 := f.LocalAt(4)
										v52 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v51.Base, Prov: v51}}
										v53 := f.LocalAt(2)
										m.GenChargeAccess()
										v54 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v53.Data[0:])))}
										v55 := interp.Value{T: v54.T, I: int64(int32(v54.I + 1))}
										m.GenStoreRaw(v53, 0, types.IntType, v55)
										v56 := core.Pointer{Addr: v52.Ptr.Addr + uint64(v54.I)*1, Prov: v52.Ptr.Prov}
										var v57 interp.Value
										if v50.T == types.CharType {
											v57 = v50
										} else {
											v57 = m.GenConvert(v50, types.CharType, server_mc_pos[39])
										}
										m.GenStoreValue(v56, types.CharType, v57, server_mc_pos[39])
										_ = v57
									}
								}
							}
							{
								m.GenStep()
								v58 := f.LocalAt(3)
								m.GenChargeAccess()
								v59 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v58.Data[0:])))}
								v60 := interp.Value{T: v59.T, I: int64(int32(v59.I + 1))}
								m.GenStoreRaw(v58, 0, types.IntType, v60)
								_ = v59
							}
						}
					}
				}
				{
					m.GenStep()
					v61 := f.LocalAt(5)
					v62 := m.GenLoadRaw(v61, 0, server_mc_t0, 7)
					v63 := f.LocalAt(3)
					m.GenChargeAccess()
					v64 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v63.Data[0:])))}
					v65 := core.Pointer{Addr: v62.Ptr.Addr + uint64(v64.I)*1, Prov: v62.Ptr.Prov}
					v66 := m.GenLoadValue(v65, types.CharType, server_mc_pos[40], -1, 10)
					v67 := interp.Value{T: types.IntType, I: 10}
					var v68 interp.Value
					v68 = m.GenBinaryOp(token.EqEq, v66, v67, types.IntType, server_mc_pos[41])
					if v68.Truthy() {
						{
							m.GenStep()
							v69 := f.LocalAt(3)
							m.GenChargeAccess()
							v70 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v69.Data[0:])))}
							v71 := interp.Value{T: v70.T, I: int64(int32(v70.I + 1))}
							m.GenStoreRaw(v69, 0, types.IntType, v71)
							_ = v70
						}
					}
				}
				{
					m.GenStep()
					v72 := interp.Value{T: types.IntType, I: 0}
					v73 := f.LocalAt(4)
					v74 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v73.Base, Prov: v73}}
					v75 := f.LocalAt(2)
					m.GenChargeAccess()
					v76 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v75.Data[0:])))}
					v77 := core.Pointer{Addr: v74.Ptr.Addr + uint64(v76.I)*1, Prov: v74.Ptr.Prov}
					var v78 interp.Value
					if v72.T == types.CharType {
						v78 = v72
					} else {
						v78 = m.GenConvert(v72, types.CharType, server_mc_pos[42])
					}
					m.GenStoreValue(v77, types.CharType, v78, server_mc_pos[42])
					_ = v78
				}
				{
					m.GenStep()
					m.GenStep()
					v79 := m.GenArgs(2)
					v80 := f.LocalAt(4)
					v81 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v80.Base, Prov: v80}}
					v79[0] = v81
					v82 := f.LocalAt(2)
					m.GenChargeAccess()
					v83 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v82.Data[0:])))}
					v79[1] = v83
					v84 := server_mc_f_mc_config_line(m, v79, server_mc_pos[43])
					m.GenPutArgs(v79)
					v85 := f.LocalAt(1)
					var v86 interp.Value
					if v84.T == types.IntType {
						v86 = v84
					} else {
						v86 = m.GenConvert(v84, types.IntType, server_mc_pos[44])
					}
					m.GenStoreRaw(v85, 0, types.IntType, v86)
					_ = v86
				}
				{
					m.GenStep()
					v87 := f.LocalAt(1)
					m.GenChargeAccess()
					v88 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v87.Data[0:])))}
					v89 := interp.Value{T: types.IntType, I: 0}
					var v90 interp.Value
					if v88.T == types.IntType && v89.T == types.IntType {
						if v88.I == v89.I {
							v90 = interp.Value{T: types.IntType, I: 1}
						} else {
							v90 = interp.Value{T: types.IntType, I: 0}
						}
					} else {
						v90 = m.GenBinaryOp(token.EqEq, v88, v89, types.IntType, server_mc_pos[45])
					}
					if v90.Truthy() {
						{
							m.GenStep()
							v91 := f.LocalAt(0)
							m.GenChargeAccess()
							v92 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v91.Data[0:])))}
							v93 := interp.Value{T: v92.T, I: int64(int32(v92.I + 1))}
							m.GenStoreRaw(v91, 0, types.IntType, v93)
							_ = v92
						}
					}
				}
			}
		}
	}
	{
		m.GenStep()
		v94 := f.LocalAt(0)
		m.GenChargeAccess()
		v95 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v94.Data[0:])))}
		ret = v95
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
	f := m.GenPushFrame("canary:mc_copy_file", 4124, server_mc_locals_mc_copy_file)
	v0 := m.GenConvert(args[0], server_mc_t0, pos)
	m.GenStoreRaw(f.LocalAt(6), 0, server_mc_t0, v0)
	v1 := m.GenConvert(args[1], types.IntType, pos)
	m.GenStoreRaw(f.LocalAt(5), 0, types.IntType, v1)
	ret := m.GenExec(f, server_mc_b_mc_copy_file)
	m.GenPopFrame(f)
	if ret.T == nil {
		return interp.Value{T: types.IntType}
	}
	return m.GenConvert(ret, types.IntType, pos)
}

func server_mc_b_mc_copy_file(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v2 := f.LocalAt(4)
		_ = v2
	}
	{
		m.GenStep()
		v3 := f.LocalAt(3)
		v4 := interp.Value{T: types.IntType, I: 0}
		var v5 interp.Value
		if v4.T == types.IntType {
			v5 = v4
		} else {
			v5 = m.GenConvert(v4, types.IntType, server_mc_pos[46])
		}
		m.GenStoreRaw(v3, 0, types.IntType, v5)
		v6 := f.LocalAt(2)
		_ = v6
		v7 := f.LocalAt(1)
		_ = v7
	}
	{
		m.GenStep()
		v8 := f.LocalAt(0)
		v9 := interp.Value{T: types.IntType, I: 0}
		var v10 interp.Value
		if v9.T == types.UIntType {
			v10 = v9
		} else {
			v10 = m.GenConvert(v9, types.UIntType, server_mc_pos[47])
		}
		m.GenStoreRaw(v8, 0, types.UIntType, v10)
	}
	{
		m.GenStep()
		v11 := f.LocalAt(5)
		m.GenChargeAccess()
		v12 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v11.Data[0:])))}
		v13 := interp.Value{T: types.ULongType, I: 1048576}
		var v14 interp.Value
		if v13.T == types.IntType {
			v14 = v13
		} else {
			v14 = m.GenConvert(v13, types.IntType, server_mc_pos[48])
		}
		var v15 interp.Value
		if v12.T == types.IntType && v14.T == types.IntType {
			if v12.I > v14.I {
				v15 = interp.Value{T: types.IntType, I: 1}
			} else {
				v15 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v15 = m.GenBinaryOp(token.Gt, v12, v14, types.IntType, server_mc_pos[49])
		}
		if v15.Truthy() {
			{
				m.GenStep()
				v16 := interp.Value{T: types.ULongType, I: 1048576}
				v17 := f.LocalAt(5)
				var v18 interp.Value
				if v16.T == types.IntType {
					v18 = v16
				} else {
					v18 = m.GenConvert(v16, types.IntType, server_mc_pos[50])
				}
				m.GenStoreRaw(v17, 0, types.IntType, v18)
				_ = v18
			}
		}
	}
	{
		m.GenStep()
		for {
			v19 := f.LocalAt(3)
			m.GenChargeAccess()
			v20 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v19.Data[0:])))}
			v21 := f.LocalAt(5)
			m.GenChargeAccess()
			v22 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v21.Data[0:])))}
			var v23 interp.Value
			if v20.T == types.IntType && v22.T == types.IntType {
				if v20.I < v22.I {
					v23 = interp.Value{T: types.IntType, I: 1}
				} else {
					v23 = interp.Value{T: types.IntType, I: 0}
				}
			} else {
				v23 = m.GenBinaryOp(token.Lt, v20, v22, types.IntType, server_mc_pos[51])
			}
			if !v23.Truthy() {
				break
			}
			m.GenStep()
			{
				m.GenStep()
				{
					m.GenStep()
					v24 := f.LocalAt(5)
					m.GenChargeAccess()
					v25 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v24.Data[0:])))}
					v26 := f.LocalAt(3)
					m.GenChargeAccess()
					v27 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v26.Data[0:])))}
					var v28 interp.Value
					if v25.T == types.IntType && v27.T == types.IntType {
						v28 = interp.Value{T: types.IntType, I: int64(int32(v25.I - v27.I))}
					} else {
						v28 = m.GenBinaryOp(token.Minus, v25, v27, types.IntType, server_mc_pos[52])
					}
					v29 := f.LocalAt(2)
					var v30 interp.Value
					if v28.T == types.IntType {
						v30 = v28
					} else {
						v30 = m.GenConvert(v28, types.IntType, server_mc_pos[53])
					}
					m.GenStoreRaw(v29, 0, types.IntType, v30)
					_ = v30
				}
				{
					m.GenStep()
					v31 := f.LocalAt(2)
					m.GenChargeAccess()
					v32 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v31.Data[0:])))}
					v33 := interp.Value{T: types.ULongType, I: 4096}
					var v34 interp.Value
					if v33.T == types.IntType {
						v34 = v33
					} else {
						v34 = m.GenConvert(v33, types.IntType, server_mc_pos[54])
					}
					var v35 interp.Value
					if v32.T == types.IntType && v34.T == types.IntType {
						if v32.I > v34.I {
							v35 = interp.Value{T: types.IntType, I: 1}
						} else {
							v35 = interp.Value{T: types.IntType, I: 0}
						}
					} else {
						v35 = m.GenBinaryOp(token.Gt, v32, v34, types.IntType, server_mc_pos[55])
					}
					if v35.Truthy() {
						{
							m.GenStep()
							v36 := interp.Value{T: types.ULongType, I: 4096}
							v37 := f.LocalAt(2)
							var v38 interp.Value
							if v36.T == types.IntType {
								v38 = v36
							} else {
								v38 = m.GenConvert(v36, types.IntType, server_mc_pos[56])
							}
							m.GenStoreRaw(v37, 0, types.IntType, v38)
							_ = v38
						}
					}
				}
				{
					m.GenStep()
					m.GenStep()
					v39 := m.GenArgs(4)
					v40 := f.LocalAt(6)
					v41 := m.GenLoadRaw(v40, 0, server_mc_t0, 8)
					v39[0] = v41
					v42 := f.LocalAt(3)
					m.GenChargeAccess()
					v43 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v42.Data[0:])))}
					v39[1] = v43
					v44 := f.LocalAt(4)
					v45 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v44.Base, Prov: v44}}
					v39[2] = v45
					v46 := f.LocalAt(2)
					m.GenChargeAccess()
					v47 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v46.Data[0:])))}
					v39[3] = v47
					v48 := m.GenBuiltin(4, "vfs_read_chunk", server_mc_pos[57])(m, server_mc_pos[57], v39)
					m.GenPutArgs(v39)
					var v49 interp.Value
					if v48.T == types.IntType {
						v49 = v48
					} else {
						v49 = m.GenConvert(v48, types.IntType, server_mc_pos[57])
					}
					v50 := f.LocalAt(2)
					var v51 interp.Value
					if v49.T == types.IntType {
						v51 = v49
					} else {
						v51 = m.GenConvert(v49, types.IntType, server_mc_pos[58])
					}
					m.GenStoreRaw(v50, 0, types.IntType, v51)
					_ = v51
				}
				{
					m.GenStep()
					v52 := f.LocalAt(2)
					m.GenChargeAccess()
					v53 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v52.Data[0:])))}
					v54 := interp.Value{T: types.IntType, I: 0}
					var v55 interp.Value
					if v53.T == types.IntType && v54.T == types.IntType {
						if v53.I <= v54.I {
							v55 = interp.Value{T: types.IntType, I: 1}
						} else {
							v55 = interp.Value{T: types.IntType, I: 0}
						}
					} else {
						v55 = m.GenBinaryOp(token.Le, v53, v54, types.IntType, server_mc_pos[59])
					}
					if v55.Truthy() {
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
						v56 := interp.Value{T: types.IntType, I: 0}
						v57 := f.LocalAt(1)
						var v58 interp.Value
						if v56.T == types.IntType {
							v58 = v56
						} else {
							v58 = m.GenConvert(v56, types.IntType, server_mc_pos[60])
						}
						m.GenStoreRaw(v57, 0, types.IntType, v58)
						_ = v58
					}
					for {
						var v59 interp.Value
						v60 := f.LocalAt(1)
						m.GenChargeAccess()
						v61 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v60.Data[0:])))}
						v62 := f.LocalAt(2)
						m.GenChargeAccess()
						v63 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v62.Data[0:])))}
						var v64 interp.Value
						if v61.T == types.IntType && v63.T == types.IntType {
							if v61.I < v63.I {
								v64 = interp.Value{T: types.IntType, I: 1}
							} else {
								v64 = interp.Value{T: types.IntType, I: 0}
							}
						} else {
							v64 = m.GenBinaryOp(token.Lt, v61, v63, types.IntType, server_mc_pos[61])
						}
						if !v64.Truthy() {
							v59 = interp.Value{T: types.IntType, I: 0}
						} else {
							v65 := f.LocalAt(1)
							m.GenChargeAccess()
							v66 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v65.Data[0:])))}
							v67 := interp.Value{T: types.IntType, I: 160}
							var v68 interp.Value
							if v66.T == types.IntType && v67.T == types.IntType {
								if v66.I < v67.I {
									v68 = interp.Value{T: types.IntType, I: 1}
								} else {
									v68 = interp.Value{T: types.IntType, I: 0}
								}
							} else {
								v68 = m.GenBinaryOp(token.Lt, v66, v67, types.IntType, server_mc_pos[62])
							}
							if v68.Truthy() {
								v59 = interp.Value{T: types.IntType, I: 1}
							} else {
								v59 = interp.Value{T: types.IntType, I: 0}
							}
						}
						if !v59.Truthy() {
							break
						}
						m.GenStep()
						{
							m.GenStep()
							v69 := f.LocalAt(0)
							m.GenChargeAccess()
							v70 := interp.Value{T: types.UIntType, I: int64(binary.LittleEndian.Uint32(v69.Data[0:]))}
							v71 := interp.Value{T: types.UIntType, I: 31}
							var v72 interp.Value
							if v70.T == types.UIntType && v71.T == types.UIntType {
								v72 = interp.Value{T: types.UIntType, I: int64(uint32(v70.I * v71.I))}
							} else {
								v72 = m.GenBinaryOp(token.Star, v70, v71, types.UIntType, server_mc_pos[63])
							}
							v73 := f.LocalAt(4)
							v74 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v73.Base, Prov: v73}}
							v75 := f.LocalAt(1)
							m.GenChargeAccess()
							v76 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v75.Data[0:])))}
							v77 := core.Pointer{Addr: v74.Ptr.Addr + uint64(v76.I)*1, Prov: v74.Ptr.Prov}
							v78 := m.GenLoadValue(v77, types.CharType, server_mc_pos[64], -1, 12)
							var v79 interp.Value
							if v78.T == types.UCharType {
								v79 = v78
							} else {
								v79 = m.GenConvert(v78, types.UCharType, server_mc_pos[65])
							}
							var v80 interp.Value
							v80 = m.GenBinaryOp(token.Plus, v72, v79, types.UIntType, server_mc_pos[66])
							v81 := f.LocalAt(0)
							var v82 interp.Value
							if v80.T == types.UIntType {
								v82 = v80
							} else {
								v82 = m.GenConvert(v80, types.UIntType, server_mc_pos[67])
							}
							m.GenStoreRaw(v81, 0, types.UIntType, v82)
							_ = v82
						}
						v83 := f.LocalAt(1)
						m.GenChargeAccess()
						v84 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v83.Data[0:])))}
						v85 := interp.Value{T: v84.T, I: int64(int32(v84.I + 1))}
						m.GenStoreRaw(v83, 0, types.IntType, v85)
						_ = v84
					}
				}
				{
					m.GenStep()
					m.GenStep()
					v86 := m.GenArgs(3)
					v87 := m.GenGlobal(1)
					v88 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v87.Base, Prov: v87}}
					v89 := f.LocalAt(3)
					m.GenChargeAccess()
					v90 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v89.Data[0:])))}
					v91 := core.Pointer{Addr: v88.Ptr.Addr + uint64(v90.I)*1, Prov: v88.Ptr.Prov}
					v92 := interp.Value{T: server_mc_t0, Ptr: v91}
					v86[0] = v92
					v93 := f.LocalAt(4)
					v94 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v93.Base, Prov: v93}}
					v86[1] = v94
					v95 := f.LocalAt(2)
					m.GenChargeAccess()
					v96 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v95.Data[0:])))}
					var v97 interp.Value
					if v96.T == types.ULongType {
						v97 = v96
					} else {
						v97 = m.GenConvert(v96, types.ULongType, server_mc_pos[68])
					}
					v86[2] = v97
					v98 := m.GenBuiltin(5, "memcpy", server_mc_pos[69])(m, server_mc_pos[69], v86)
					m.GenPutArgs(v86)
					var v99 interp.Value
					if v98.T == server_mc_t1 {
						v99 = v98
					} else {
						v99 = m.GenConvert(v98, server_mc_t1, server_mc_pos[69])
					}
					_ = v99
				}
				{
					m.GenStep()
					v100 := f.LocalAt(3)
					m.GenChargeAccess()
					v101 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v100.Data[0:])))}
					v102 := f.LocalAt(2)
					m.GenChargeAccess()
					v103 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v102.Data[0:])))}
					var v104 interp.Value
					if v101.T == types.IntType && v103.T == types.IntType {
						v104 = interp.Value{T: types.IntType, I: int64(int32(v101.I + v103.I))}
					} else {
						v104 = m.GenBinaryOp(token.Plus, v101, v103, types.IntType, server_mc_pos[70])
					}
					var v105 interp.Value
					if v104.T == types.IntType {
						v105 = v104
					} else {
						v105 = m.GenConvert(v104, types.IntType, server_mc_pos[70])
					}
					m.GenStoreRaw(v100, 0, types.IntType, v105)
					_ = v105
				}
			}
		}
	}
	{
		m.GenStep()
		v106 := f.LocalAt(3)
		m.GenChargeAccess()
		v107 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v106.Data[0:])))}
		v108 := m.GenGlobal(2)
		var v109 interp.Value
		if v107.T == types.IntType {
			v109 = v107
		} else {
			v109 = m.GenConvert(v107, types.IntType, server_mc_pos[71])
		}
		m.GenStoreRaw(v108, 0, types.IntType, v109)
		_ = v109
	}
	{
		m.GenStep()
		m.GenStep()
		v110 := m.GenArgs(6)
		v111 := m.GenGlobal(0)
		v112 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v111.Base, Prov: v111}}
		v110[0] = v112
		v113 := interp.Value{T: types.ULongType, I: 256}
		v110[1] = v113
		v114 := m.GenLiteral(2)
		v115 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v114.Base, Prov: v114}}
		v110[2] = v115
		v116 := f.LocalAt(3)
		m.GenChargeAccess()
		v117 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v116.Data[0:])))}
		v110[3] = v117
		v118 := f.LocalAt(6)
		v119 := m.GenLoadRaw(v118, 0, server_mc_t0, 9)
		v110[4] = v119
		v120 := f.LocalAt(0)
		m.GenChargeAccess()
		v121 := interp.Value{T: types.UIntType, I: int64(binary.LittleEndian.Uint32(v120.Data[0:]))}
		v110[5] = v121
		v122 := m.GenBuiltin(3, "snprintf", server_mc_pos[72])(m, server_mc_pos[72], v110)
		m.GenPutArgs(v110)
		var v123 interp.Value
		if v122.T == types.IntType {
			v123 = v122
		} else {
			v123 = m.GenConvert(v122, types.IntType, server_mc_pos[72])
		}
		_ = v123
	}
	{
		m.GenStep()
		v124 := f.LocalAt(3)
		m.GenChargeAccess()
		v125 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v124.Data[0:])))}
		ret = v125
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
	f := m.GenPushFrame("canary:validate_path", 33, server_mc_locals_validate_path)
	v0 := m.GenConvert(args[0], server_mc_t0, pos)
	m.GenStoreRaw(f.LocalAt(6), 0, server_mc_t0, v0)
	v1 := m.GenConvert(args[1], server_mc_t0, pos)
	m.GenStoreRaw(f.LocalAt(5), 0, server_mc_t0, v1)
	v2 := m.GenConvert(args[2], types.IntType, pos)
	m.GenStoreRaw(f.LocalAt(4), 0, types.IntType, v2)
	ret := m.GenExec(f, server_mc_b_validate_path)
	m.GenPopFrame(f)
	if ret.T == nil {
		return interp.Value{T: types.IntType}
	}
	return m.GenConvert(ret, types.IntType, pos)
}

func server_mc_b_validate_path(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v3 := f.LocalAt(3)
		v4 := interp.Value{T: types.IntType, I: 0}
		var v5 interp.Value
		if v4.T == types.IntType {
			v5 = v4
		} else {
			v5 = m.GenConvert(v4, types.IntType, server_mc_pos[73])
		}
		m.GenStoreRaw(v3, 0, types.IntType, v5)
		v6 := f.LocalAt(2)
		v7 := interp.Value{T: types.IntType, I: 0}
		var v8 interp.Value
		if v7.T == types.IntType {
			v8 = v7
		} else {
			v8 = m.GenConvert(v7, types.IntType, server_mc_pos[73])
		}
		m.GenStoreRaw(v6, 0, types.IntType, v8)
	}
	{
		m.GenStep()
		v9 := f.LocalAt(1)
		v10 := interp.Value{T: types.IntType, I: 0}
		var v11 interp.Value
		if v10.T == types.IntType {
			v11 = v10
		} else {
			v11 = m.GenConvert(v10, types.IntType, server_mc_pos[74])
		}
		m.GenStoreRaw(v9, 0, types.IntType, v11)
	}
	{
		m.GenStep()
		for {
			v12 := f.LocalAt(6)
			v13 := m.GenLoadRaw(v12, 0, server_mc_t0, 10)
			v14 := f.LocalAt(3)
			m.GenChargeAccess()
			v15 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v14.Data[0:])))}
			v16 := core.Pointer{Addr: v13.Ptr.Addr + uint64(v15.I)*1, Prov: v13.Ptr.Prov}
			v17 := m.GenLoadValue(v16, types.CharType, server_mc_pos[75], -1, 14)
			v18 := interp.Value{T: types.IntType, I: 0}
			var v19 interp.Value
			v19 = m.GenBinaryOp(token.NotEq, v17, v18, types.IntType, server_mc_pos[76])
			if !v19.Truthy() {
				break
			}
			m.GenStep()
			{
				m.GenStep()
				{
					m.GenStep()
					v20 := f.LocalAt(0)
					v21 := f.LocalAt(6)
					v22 := m.GenLoadRaw(v21, 0, server_mc_t0, 11)
					v23 := f.LocalAt(3)
					m.GenChargeAccess()
					v24 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v23.Data[0:])))}
					v25 := core.Pointer{Addr: v22.Ptr.Addr + uint64(v24.I)*1, Prov: v22.Ptr.Prov}
					v26 := m.GenLoadValue(v25, types.CharType, server_mc_pos[77], -1, 15)
					var v27 interp.Value
					if v26.T == types.CharType {
						v27 = v26
					} else {
						v27 = m.GenConvert(v26, types.CharType, server_mc_pos[78])
					}
					m.GenStoreRaw(v20, 0, types.CharType, v27)
				}
				{
					m.GenStep()
					v28 := f.LocalAt(0)
					m.GenChargeAccess()
					v29 := interp.Value{T: types.CharType, I: int64(int8(v28.Data[0]))}
					v30 := interp.Value{T: types.IntType, I: 32}
					var v31 interp.Value
					v31 = m.GenBinaryOp(token.Lt, v29, v30, types.IntType, server_mc_pos[79])
					if v31.Truthy() {
						{
							m.GenStep()
							v32 := interp.Value{T: types.IntType, I: 1}
							v33 := interp.Value{T: types.IntType, I: int64(int32(-v32.I))}
							ret = v33
							if interp.GenLive {
								return
							}
						}
					}
				}
				{
					m.GenStep()
					v34 := f.LocalAt(0)
					m.GenChargeAccess()
					v35 := interp.Value{T: types.CharType, I: int64(int8(v34.Data[0]))}
					v36 := interp.Value{T: types.IntType, I: 47}
					var v37 interp.Value
					v37 = m.GenBinaryOp(token.EqEq, v35, v36, types.IntType, server_mc_pos[80])
					if v37.Truthy() {
						{
							m.GenStep()
							{
								m.GenStep()
								var v38 interp.Value
								v39 := f.LocalAt(1)
								m.GenChargeAccess()
								v40 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v39.Data[0:])))}
								var v41 interp.Value
								if v40.Truthy() {
									v41 = interp.Value{T: types.IntType, I: 0}
								} else {
									v41 = interp.Value{T: types.IntType, I: 1}
								}
								if !v41.Truthy() {
									v38 = interp.Value{T: types.IntType, I: 0}
								} else {
									v42 := f.LocalAt(2)
									m.GenChargeAccess()
									v43 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v42.Data[0:])))}
									v44 := f.LocalAt(4)
									m.GenChargeAccess()
									v45 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v44.Data[0:])))}
									v46 := interp.Value{T: types.IntType, I: 1}
									var v47 interp.Value
									if v45.T == types.IntType && v46.T == types.IntType {
										v47 = interp.Value{T: types.IntType, I: int64(int32(v45.I - v46.I))}
									} else {
										v47 = m.GenBinaryOp(token.Minus, v45, v46, types.IntType, server_mc_pos[81])
									}
									var v48 interp.Value
									if v43.T == types.IntType && v47.T == types.IntType {
										if v43.I < v47.I {
											v48 = interp.Value{T: types.IntType, I: 1}
										} else {
											v48 = interp.Value{T: types.IntType, I: 0}
										}
									} else {
										v48 = m.GenBinaryOp(token.Lt, v43, v47, types.IntType, server_mc_pos[82])
									}
									if v48.Truthy() {
										v38 = interp.Value{T: types.IntType, I: 1}
									} else {
										v38 = interp.Value{T: types.IntType, I: 0}
									}
								}
								if v38.Truthy() {
									{
										m.GenStep()
										v49 := f.LocalAt(0)
										m.GenChargeAccess()
										v50 := interp.Value{T: types.CharType, I: int64(int8(v49.Data[0]))}
										v51 := f.LocalAt(5)
										v52 := m.GenLoadRaw(v51, 0, server_mc_t0, 12)
										v53 := f.LocalAt(2)
										m.GenChargeAccess()
										v54 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v53.Data[0:])))}
										v55 := interp.Value{T: v54.T, I: int64(int32(v54.I + 1))}
										m.GenStoreRaw(v53, 0, types.IntType, v55)
										v56 := core.Pointer{Addr: v52.Ptr.Addr + uint64(v54.I)*1, Prov: v52.Ptr.Prov}
										var v57 interp.Value
										if v50.T == types.CharType {
											v57 = v50
										} else {
											v57 = m.GenConvert(v50, types.CharType, server_mc_pos[83])
										}
										m.GenStoreValue(v56, types.CharType, v57, server_mc_pos[83])
										_ = v57
									}
								}
							}
							{
								m.GenStep()
								v58 := interp.Value{T: types.IntType, I: 1}
								v59 := f.LocalAt(1)
								var v60 interp.Value
								if v58.T == types.IntType {
									v60 = v58
								} else {
									v60 = m.GenConvert(v58, types.IntType, server_mc_pos[84])
								}
								m.GenStoreRaw(v59, 0, types.IntType, v60)
								_ = v60
							}
						}
					} else {
						{
							m.GenStep()
							{
								m.GenStep()
								v61 := interp.Value{T: types.IntType, I: 0}
								v62 := f.LocalAt(1)
								var v63 interp.Value
								if v61.T == types.IntType {
									v63 = v61
								} else {
									v63 = m.GenConvert(v61, types.IntType, server_mc_pos[85])
								}
								m.GenStoreRaw(v62, 0, types.IntType, v63)
								_ = v63
							}
							{
								m.GenStep()
								v64 := f.LocalAt(2)
								m.GenChargeAccess()
								v65 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v64.Data[0:])))}
								v66 := f.LocalAt(4)
								m.GenChargeAccess()
								v67 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v66.Data[0:])))}
								v68 := interp.Value{T: types.IntType, I: 1}
								var v69 interp.Value
								if v67.T == types.IntType && v68.T == types.IntType {
									v69 = interp.Value{T: types.IntType, I: int64(int32(v67.I - v68.I))}
								} else {
									v69 = m.GenBinaryOp(token.Minus, v67, v68, types.IntType, server_mc_pos[86])
								}
								var v70 interp.Value
								if v65.T == types.IntType && v69.T == types.IntType {
									if v65.I < v69.I {
										v70 = interp.Value{T: types.IntType, I: 1}
									} else {
										v70 = interp.Value{T: types.IntType, I: 0}
									}
								} else {
									v70 = m.GenBinaryOp(token.Lt, v65, v69, types.IntType, server_mc_pos[87])
								}
								if v70.Truthy() {
									{
										m.GenStep()
										v71 := f.LocalAt(0)
										m.GenChargeAccess()
										v72 := interp.Value{T: types.CharType, I: int64(int8(v71.Data[0]))}
										v73 := f.LocalAt(5)
										v74 := m.GenLoadRaw(v73, 0, server_mc_t0, 13)
										v75 := f.LocalAt(2)
										m.GenChargeAccess()
										v76 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v75.Data[0:])))}
										v77 := interp.Value{T: v76.T, I: int64(int32(v76.I + 1))}
										m.GenStoreRaw(v75, 0, types.IntType, v77)
										v78 := core.Pointer{Addr: v74.Ptr.Addr + uint64(v76.I)*1, Prov: v74.Ptr.Prov}
										var v79 interp.Value
										if v72.T == types.CharType {
											v79 = v72
										} else {
											v79 = m.GenConvert(v72, types.CharType, server_mc_pos[88])
										}
										m.GenStoreValue(v78, types.CharType, v79, server_mc_pos[88])
										_ = v79
									}
								}
							}
						}
					}
				}
				{
					m.GenStep()
					v80 := f.LocalAt(3)
					m.GenChargeAccess()
					v81 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v80.Data[0:])))}
					v82 := interp.Value{T: v81.T, I: int64(int32(v81.I + 1))}
					m.GenStoreRaw(v80, 0, types.IntType, v82)
					_ = v81
				}
			}
		}
	}
	{
		m.GenStep()
		v83 := interp.Value{T: types.IntType, I: 0}
		v84 := f.LocalAt(5)
		v85 := m.GenLoadRaw(v84, 0, server_mc_t0, 14)
		v86 := f.LocalAt(2)
		m.GenChargeAccess()
		v87 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v86.Data[0:])))}
		v88 := core.Pointer{Addr: v85.Ptr.Addr + uint64(v87.I)*1, Prov: v85.Ptr.Prov}
		var v89 interp.Value
		if v83.T == types.CharType {
			v89 = v83
		} else {
			v89 = m.GenConvert(v83, types.CharType, server_mc_pos[89])
		}
		m.GenStoreValue(v88, types.CharType, v89, server_mc_pos[89])
		_ = v89
	}
	{
		m.GenStep()
		v90 := f.LocalAt(2)
		m.GenChargeAccess()
		v91 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v90.Data[0:])))}
		ret = v91
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
	f := m.GenPushFrame("canary:mc_move_file", 272, server_mc_locals_mc_move_file)
	v0 := m.GenConvert(args[0], server_mc_t0, pos)
	m.GenStoreRaw(f.LocalAt(3), 0, server_mc_t0, v0)
	v1 := m.GenConvert(args[1], server_mc_t0, pos)
	m.GenStoreRaw(f.LocalAt(2), 0, server_mc_t0, v1)
	ret := m.GenExec(f, server_mc_b_mc_move_file)
	m.GenPopFrame(f)
	if ret.T == nil {
		return interp.Value{T: types.IntType}
	}
	return m.GenConvert(ret, types.IntType, pos)
}

func server_mc_b_mc_move_file(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v2 := f.LocalAt(1)
		_ = v2
		v3 := f.LocalAt(0)
		_ = v3
	}
	{
		m.GenStep()
		m.GenStep()
		v4 := m.GenArgs(3)
		v5 := f.LocalAt(3)
		v6 := m.GenLoadRaw(v5, 0, server_mc_t0, 15)
		v4[0] = v6
		v7 := f.LocalAt(1)
		v8 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v7.Base, Prov: v7}}
		v4[1] = v8
		v9 := interp.Value{T: types.ULongType, I: 128}
		var v10 interp.Value
		if v9.T == types.IntType {
			v10 = v9
		} else {
			v10 = m.GenConvert(v9, types.IntType, server_mc_pos[90])
		}
		v4[2] = v10
		v11 := server_mc_f_validate_path(m, v4, server_mc_pos[91])
		m.GenPutArgs(v4)
		v12 := interp.Value{T: types.IntType, I: 0}
		var v13 interp.Value
		if v11.T == types.IntType && v12.T == types.IntType {
			if v11.I < v12.I {
				v13 = interp.Value{T: types.IntType, I: 1}
			} else {
				v13 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v13 = m.GenBinaryOp(token.Lt, v11, v12, types.IntType, server_mc_pos[92])
		}
		if v13.Truthy() {
			{
				m.GenStep()
				v14 := interp.Value{T: types.IntType, I: 1}
				v15 := interp.Value{T: types.IntType, I: int64(int32(-v14.I))}
				ret = v15
				if interp.GenLive {
					return
				}
			}
		}
	}
	{
		m.GenStep()
		m.GenStep()
		v16 := m.GenArgs(3)
		v17 := f.LocalAt(2)
		v18 := m.GenLoadRaw(v17, 0, server_mc_t0, 16)
		v16[0] = v18
		v19 := f.LocalAt(0)
		v20 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v19.Base, Prov: v19}}
		v16[1] = v20
		v21 := interp.Value{T: types.ULongType, I: 128}
		var v22 interp.Value
		if v21.T == types.IntType {
			v22 = v21
		} else {
			v22 = m.GenConvert(v21, types.IntType, server_mc_pos[93])
		}
		v16[2] = v22
		v23 := server_mc_f_validate_path(m, v16, server_mc_pos[94])
		m.GenPutArgs(v16)
		v24 := interp.Value{T: types.IntType, I: 0}
		var v25 interp.Value
		if v23.T == types.IntType && v24.T == types.IntType {
			if v23.I < v24.I {
				v25 = interp.Value{T: types.IntType, I: 1}
			} else {
				v25 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v25 = m.GenBinaryOp(token.Lt, v23, v24, types.IntType, server_mc_pos[95])
		}
		if v25.Truthy() {
			{
				m.GenStep()
				v26 := interp.Value{T: types.IntType, I: 1}
				v27 := interp.Value{T: types.IntType, I: int64(int32(-v26.I))}
				ret = v27
				if interp.GenLive {
					return
				}
			}
		}
	}
	{
		m.GenStep()
		m.GenStep()
		v28 := m.GenArgs(2)
		v29 := f.LocalAt(1)
		v30 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v29.Base, Prov: v29}}
		v28[0] = v30
		v31 := f.LocalAt(0)
		v32 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v31.Base, Prov: v31}}
		v28[1] = v32
		v33 := m.GenBuiltin(6, "vfs_rename", server_mc_pos[96])(m, server_mc_pos[96], v28)
		m.GenPutArgs(v28)
		var v34 interp.Value
		if v33.T == types.IntType {
			v34 = v33
		} else {
			v34 = m.GenConvert(v33, types.IntType, server_mc_pos[96])
		}
		ret = v34
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
	f := m.GenPushFrame("canary:mc_mkdir", 404, server_mc_locals_mc_mkdir)
	v0 := m.GenConvert(args[0], server_mc_t0, pos)
	m.GenStoreRaw(f.LocalAt(5), 0, server_mc_t0, v0)
	ret := m.GenExec(f, server_mc_b_mc_mkdir)
	m.GenPopFrame(f)
	if ret.T == nil {
		return interp.Value{T: types.IntType}
	}
	return m.GenConvert(ret, types.IntType, pos)
}

func server_mc_b_mc_mkdir(m *interp.Machine, f *mem.Frame) (ret interp.Value) {
	_ = f
	{
		m.GenStep()
		v1 := f.LocalAt(4)
		_ = v1
	}
	{
		m.GenStep()
		v2 := f.LocalAt(3)
		_ = v2
	}
	{
		m.GenStep()
		v3 := f.LocalAt(2)
		_ = v3
		v4 := f.LocalAt(1)
		_ = v4
		v5 := f.LocalAt(0)
		v6 := interp.Value{T: types.IntType, I: 0}
		var v7 interp.Value
		if v6.T == types.IntType {
			v7 = v6
		} else {
			v7 = m.GenConvert(v6, types.IntType, server_mc_pos[97])
		}
		m.GenStoreRaw(v5, 0, types.IntType, v7)
	}
	{
		m.GenStep()
		m.GenStep()
		v8 := m.GenArgs(3)
		v9 := f.LocalAt(5)
		v10 := m.GenLoadRaw(v9, 0, server_mc_t0, 17)
		v8[0] = v10
		v11 := f.LocalAt(4)
		v12 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v11.Base, Prov: v11}}
		v8[1] = v12
		v13 := interp.Value{T: types.ULongType, I: 128}
		var v14 interp.Value
		if v13.T == types.IntType {
			v14 = v13
		} else {
			v14 = m.GenConvert(v13, types.IntType, server_mc_pos[98])
		}
		v8[2] = v14
		v15 := server_mc_f_validate_path(m, v8, server_mc_pos[99])
		m.GenPutArgs(v8)
		v16 := f.LocalAt(2)
		var v17 interp.Value
		if v15.T == types.IntType {
			v17 = v15
		} else {
			v17 = m.GenConvert(v15, types.IntType, server_mc_pos[100])
		}
		m.GenStoreRaw(v16, 0, types.IntType, v17)
		_ = v17
	}
	{
		m.GenStep()
		v18 := f.LocalAt(2)
		m.GenChargeAccess()
		v19 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v18.Data[0:])))}
		v20 := interp.Value{T: types.IntType, I: 0}
		var v21 interp.Value
		if v19.T == types.IntType && v20.T == types.IntType {
			if v19.I < v20.I {
				v21 = interp.Value{T: types.IntType, I: 1}
			} else {
				v21 = interp.Value{T: types.IntType, I: 0}
			}
		} else {
			v21 = m.GenBinaryOp(token.Lt, v19, v20, types.IntType, server_mc_pos[101])
		}
		if v21.Truthy() {
			{
				m.GenStep()
				v22 := interp.Value{T: types.IntType, I: 1}
				v23 := interp.Value{T: types.IntType, I: int64(int32(-v22.I))}
				ret = v23
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
			v24 := interp.Value{T: types.IntType, I: 0}
			v25 := f.LocalAt(1)
			var v26 interp.Value
			if v24.T == types.IntType {
				v26 = v24
			} else {
				v26 = m.GenConvert(v24, types.IntType, server_mc_pos[102])
			}
			m.GenStoreRaw(v25, 0, types.IntType, v26)
			_ = v26
		}
		for {
			v27 := f.LocalAt(1)
			m.GenChargeAccess()
			v28 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v27.Data[0:])))}
			v29 := f.LocalAt(2)
			m.GenChargeAccess()
			v30 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v29.Data[0:])))}
			var v31 interp.Value
			if v28.T == types.IntType && v30.T == types.IntType {
				if v28.I < v30.I {
					v31 = interp.Value{T: types.IntType, I: 1}
				} else {
					v31 = interp.Value{T: types.IntType, I: 0}
				}
			} else {
				v31 = m.GenBinaryOp(token.Lt, v28, v30, types.IntType, server_mc_pos[103])
			}
			if !v31.Truthy() {
				break
			}
			m.GenStep()
			{
				m.GenStep()
				{
					m.GenStep()
					v32 := f.LocalAt(4)
					v33 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v32.Base, Prov: v32}}
					v34 := f.LocalAt(1)
					m.GenChargeAccess()
					v35 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v34.Data[0:])))}
					v36 := core.Pointer{Addr: v33.Ptr.Addr + uint64(v35.I)*1, Prov: v33.Ptr.Prov}
					v37 := m.GenLoadValue(v36, types.CharType, server_mc_pos[104], -1, 20)
					v38 := f.LocalAt(3)
					v39 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v38.Base, Prov: v38}}
					v40 := f.LocalAt(0)
					m.GenChargeAccess()
					v41 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v40.Data[0:])))}
					v42 := interp.Value{T: v41.T, I: int64(int32(v41.I + 1))}
					m.GenStoreRaw(v40, 0, types.IntType, v42)
					v43 := core.Pointer{Addr: v39.Ptr.Addr + uint64(v41.I)*1, Prov: v39.Ptr.Prov}
					var v44 interp.Value
					if v37.T == types.CharType {
						v44 = v37
					} else {
						v44 = m.GenConvert(v37, types.CharType, server_mc_pos[105])
					}
					m.GenStoreValue(v43, types.CharType, v44, server_mc_pos[105])
					_ = v44
				}
				{
					m.GenStep()
					v45 := f.LocalAt(4)
					v46 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v45.Base, Prov: v45}}
					v47 := f.LocalAt(1)
					m.GenChargeAccess()
					v48 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v47.Data[0:])))}
					v49 := core.Pointer{Addr: v46.Ptr.Addr + uint64(v48.I)*1, Prov: v46.Ptr.Prov}
					v50 := m.GenLoadValue(v49, types.CharType, server_mc_pos[106], -1, 21)
					v51 := interp.Value{T: types.IntType, I: 47}
					var v52 interp.Value
					v52 = m.GenBinaryOp(token.EqEq, v50, v51, types.IntType, server_mc_pos[107])
					if v52.Truthy() {
						{
							m.GenStep()
							v53 := interp.Value{T: types.IntType, I: 32}
							v54 := f.LocalAt(3)
							v55 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v54.Base, Prov: v54}}
							v56 := f.LocalAt(0)
							m.GenChargeAccess()
							v57 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v56.Data[0:])))}
							v58 := interp.Value{T: v57.T, I: int64(int32(v57.I + 1))}
							m.GenStoreRaw(v56, 0, types.IntType, v58)
							v59 := core.Pointer{Addr: v55.Ptr.Addr + uint64(v57.I)*1, Prov: v55.Ptr.Prov}
							var v60 interp.Value
							if v53.T == types.CharType {
								v60 = v53
							} else {
								v60 = m.GenConvert(v53, types.CharType, server_mc_pos[108])
							}
							m.GenStoreValue(v59, types.CharType, v60, server_mc_pos[108])
							_ = v60
						}
					}
				}
			}
			v61 := f.LocalAt(1)
			m.GenChargeAccess()
			v62 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v61.Data[0:])))}
			v63 := interp.Value{T: v62.T, I: int64(int32(v62.I + 1))}
			m.GenStoreRaw(v61, 0, types.IntType, v63)
			_ = v62
		}
	}
	{
		m.GenStep()
		v64 := interp.Value{T: types.IntType, I: 0}
		v65 := f.LocalAt(3)
		v66 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v65.Base, Prov: v65}}
		v67 := f.LocalAt(0)
		m.GenChargeAccess()
		v68 := interp.Value{T: types.IntType, I: int64(int32(binary.LittleEndian.Uint32(v67.Data[0:])))}
		v69 := core.Pointer{Addr: v66.Ptr.Addr + uint64(v68.I)*1, Prov: v66.Ptr.Prov}
		var v70 interp.Value
		if v64.T == types.CharType {
			v70 = v64
		} else {
			v70 = m.GenConvert(v64, types.CharType, server_mc_pos[109])
		}
		m.GenStoreValue(v69, types.CharType, v70, server_mc_pos[109])
		_ = v70
	}
	{
		m.GenStep()
		m.GenStep()
		v71 := m.GenArgs(4)
		v72 := m.GenGlobal(0)
		v73 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v72.Base, Prov: v72}}
		v71[0] = v73
		v74 := interp.Value{T: types.ULongType, I: 256}
		v71[1] = v74
		v75 := m.GenLiteral(3)
		v76 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v75.Base, Prov: v75}}
		v71[2] = v76
		v77 := f.LocalAt(3)
		v78 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v77.Base, Prov: v77}}
		v71[3] = v78
		v79 := m.GenBuiltin(3, "snprintf", server_mc_pos[110])(m, server_mc_pos[110], v71)
		m.GenPutArgs(v71)
		var v80 interp.Value
		if v79.T == types.IntType {
			v80 = v79
		} else {
			v80 = m.GenConvert(v79, types.IntType, server_mc_pos[110])
		}
		_ = v80
	}
	{
		m.GenStep()
		m.GenStep()
		v81 := m.GenArgs(1)
		v82 := f.LocalAt(4)
		v83 := interp.Value{T: types.PointerTo(types.CharType), Ptr: core.Pointer{Addr: v82.Base, Prov: v82}}
		v81[0] = v83
		v84 := m.GenBuiltin(7, "vfs_mkdir", server_mc_pos[111])(m, server_mc_pos[111], v81)
		m.GenPutArgs(v81)
		var v85 interp.Value
		if v84.T == types.IntType {
			v85 = v84
		} else {
			v85 = m.GenConvert(v84, types.IntType, server_mc_pos[111])
		}
		ret = v85
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
	f := m.GenPushFrame("canary:mc_delete_file", 8, server_mc_locals_mc_delete_file)
	v0 := m.GenConvert(args[0], server_mc_t0, pos)
	m.GenStoreRaw(f.LocalAt(0), 0, server_mc_t0, v0)
	ret := m.GenExec(f, server_mc_b_mc_delete_file)
	m.GenPopFrame(f)
	if ret.T == nil {
		return interp.Value{T: types.IntType}
	}
	return m.GenConvert(ret, types.IntType, pos)
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
		v4 := m.GenBuiltin(8, "vfs_unlink", server_mc_pos[112])(m, server_mc_pos[112], v1)
		m.GenPutArgs(v1)
		var v5 interp.Value
		if v4.T == types.IntType {
			v5 = v4
		} else {
			v5 = m.GenConvert(v4, types.IntType, server_mc_pos[112])
		}
		ret = v5
		if interp.GenLive {
			return
		}
	}
	return
}
