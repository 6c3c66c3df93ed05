//! On-disk persistent prepared-session cache — the second tier behind
//! [`crate::cache::ModuleCache`]'s in-memory map (memory → disk → build).
//!
//! The expensive part of an analysis job is the fused
//! validate + instrument + translate build; the in-memory cache amortizes
//! it across jobs of one process, this tier amortizes it across **process
//! restarts**: a `wasabid` daemon coming back up serves a known module
//! from a small file read instead of a rebuild (the same
//! amortize-preparation economics as the paper's Table 5, extended past
//! process lifetime).
//!
//! # File format
//!
//! One file per `(module content key, hook set)` under the cache
//! directory, named `<sanitized key>-<hook bits hex>.wsbc`:
//!
//! ```text
//! magic       b"WSBC"
//! version     u32 LE  — FORMAT_VERSION, bumped on any layout change
//!                       (including the VM op codec's)
//! hook bits   u32 LE  — the HookSet the entry was built for
//! module key  u32 len + bytes — the content key, e.g. "fnv64:<16 hex>"
//! hooks       u32 count + tagged LowLevelHook records
//! br_tables   u32 count + BrTableInfo records
//! vm code     u32 len + bytes — wasabi_vm's ModuleCode codec payload
//! checksum    u64 LE  — FNV-1a over every preceding byte
//! ```
//!
//! # Invalidation = verification, never deletion
//!
//! A load re-derives every part of the key from what the caller already
//! holds and verifies the file against it: wrong magic or version (stale
//! format), mismatched hook bits or module key (renamed/foreign file),
//! checksum mismatch (truncation, bit rot), undecodable payload, or a
//! function count disagreeing with the module each make the load return
//! `None` — the caller falls back to a clean rebuild, and the rebuild's
//! [`DiskCache::store`] **overwrites** the bad entry via a tmp-file +
//! atomic rename. No entry is ever trusted because of its filename alone,
//! and no failure mode panics or serves wrong code.
//!
//! The remaining static info ([`ModuleInfo`]'s function/table/start
//! sections) is *not* persisted: it is cheaply recomputed from the module
//! the caller passes in, which also guarantees it can never go stale
//! relative to the module bytes.

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use wasabi_wasm::instr::{BinaryOp, GlobalOp, LoadOp, LocalOp, StoreOp, UnaryOp};
use wasabi_wasm::module::Module;
use wasabi_wasm::types::ValType;

use wasabi_vm::TranslatedModule;

use crate::convention::LowLevelHook;
use crate::hooks::{BlockKind, HookSet};
use crate::info::{BrTableEntry, BrTableInfo, EndInfo, ModuleInfo};
use crate::location::{BranchTarget, Location};
use crate::runtime::AnalysisSession;
use crate::stats;

/// Bump on ANY change to this layout or to the VM code codec.
const FORMAT_VERSION: u32 = 2;

const MAGIC: &[u8; 4] = b"WSBC";

/// FNV-1a 64 over `bytes` (same constants as
/// [`crate::cache::content_key`]): integrity check, not authentication.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A directory of serialized prepared sessions — see the
/// [module docs](self) for format and invalidation rules.
#[derive(Debug, Clone)]
pub struct DiskCache {
    dir: PathBuf,
}

impl DiskCache {
    /// Open (creating if needed) the cache directory.
    ///
    /// # Errors
    ///
    /// Fails if the directory cannot be created.
    pub fn new(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        sweep_stale_tmp(&dir);
        Ok(DiskCache { dir })
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Entry path for `(key, hooks)`. The key lands in the filename with
    /// path-hostile characters mapped to `_` (content keys are
    /// `fnv64:<hex>`, so collisions would need colliding hashes anyway);
    /// the authoritative key check is against the file *content*.
    fn entry_path(&self, key: &str, hooks: HookSet) -> PathBuf {
        let safe: String = key
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect();
        self.dir.join(format!("{safe}-{:08x}.wsbc", hooks.bits()))
    }

    /// Load and verify the entry for `(key, hooks)`, rebuilding the
    /// session against `module` (which must be the binary `key` names);
    /// the loaded session shares `module`. Returns `None` — never panics,
    /// never serves mismatched code — when there is no usable entry; the
    /// caller rebuilds.
    pub fn load(&self, key: &str, hooks: HookSet, module: &Arc<Module>) -> Option<AnalysisSession> {
        if crate::fault::fire("disk/load").is_some() {
            return None;
        }
        let bytes = fs::read(self.entry_path(key, hooks)).ok()?;
        let (payload, checksum) = bytes.split_at(bytes.len().checked_sub(8)?);
        if fnv64(payload) != u64::from_le_bytes(checksum.try_into().ok()?) {
            return None;
        }
        let mut r = Reader {
            bytes: payload,
            pos: 0,
        };
        if r.take(4)? != MAGIC {
            return None;
        }
        if r.u32()? != FORMAT_VERSION {
            return None;
        }
        if r.u32()? != hooks.bits() {
            return None;
        }
        if r.str()? != key {
            return None;
        }
        let hook_list: Vec<LowLevelHook> =
            (0..r.len()?).map(|_| r.hook()).collect::<Option<_>>()?;
        let br_tables: Vec<BrTableInfo> = (0..r.len()?)
            .map(|_| r.br_table_info())
            .collect::<Option<_>>()?;
        let code_len = r.len()?;
        let code_bytes = r.take(code_len)?;
        if r.remaining() != 0 {
            return None;
        }

        let translated = TranslatedModule::from_encoded_code(Arc::clone(module), code_bytes)?;
        if translated.hook_imports().len() != hook_list.len() {
            return None;
        }
        let mut info = ModuleInfo::from_module(module);
        info.enabled = hooks;
        info.hooks = hook_list;
        info.br_tables = br_tables;
        Some(AnalysisSession::from_direct(translated, info))
    }

    /// Persist `session` as the entry for `(key, hooks)`, overwriting any
    /// existing (possibly corrupt) entry via tmp-file + atomic rename.
    /// Best-effort: IO failures leave the cache without the entry (a
    /// later load rebuilds), they never fail the build that produced the
    /// session — but they are **counted**
    /// ([`crate::stats::disk_cache_write_errors`]), not swallowed, so a
    /// misconfigured or full cache volume is observable.
    pub fn store(&self, key: &str, hooks: HookSet, session: &AnalysisSession) {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        put_u32(&mut out, FORMAT_VERSION);
        put_u32(&mut out, hooks.bits());
        put_str(&mut out, key);
        let info = session.info();
        put_u32(&mut out, info.hooks.len() as u32);
        for hook in &info.hooks {
            put_hook(&mut out, hook);
        }
        put_u32(&mut out, info.br_tables.len() as u32);
        for bt in &info.br_tables {
            put_br_table_info(&mut out, bt);
        }
        let code = session.translated().encode_code();
        put_u32(&mut out, code.len() as u32);
        out.extend_from_slice(&code);
        let checksum = fnv64(&out);
        out.extend_from_slice(&checksum.to_le_bytes());

        let path = self.entry_path(key, hooks);
        let tmp = path.with_extension(format!("tmp{}", std::process::id()));
        let written = match crate::fault::fire("disk/store") {
            Some(msg) => Err(std::io::Error::other(msg)),
            None => fs::File::create(&tmp)
                .and_then(|mut f| f.write_all(&out).and_then(|()| f.sync_all())),
        };
        let stored = written.and_then(|()| fs::rename(&tmp, &path));
        if stored.is_err() {
            stats::record_disk_cache_write_error();
        }
        let _ = fs::remove_file(&tmp);
    }
}

/// Remove tmp files orphaned by a crash between `File::create` and the
/// rename/cleanup in [`DiskCache::store`]. `entry_path` names tmp files
/// `<stem>.tmp<pid>` (`with_extension` replaces `.wsbc`), so anything
/// whose extension starts with `tmp` is store debris — entries
/// themselves always end in `.wsbc`.
fn sweep_stale_tmp(dir: &Path) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let is_tmp = path
            .extension()
            .and_then(|e| e.to_str())
            .is_some_and(|e| e.starts_with("tmp"));
        if is_tmp {
            let _ = fs::remove_file(&path);
        }
    }
}

// ---- Info-section encoding --------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_valtype(out: &mut Vec<u8>, ty: ValType) {
    let idx = ValType::ALL
        .iter()
        .position(|&t| t == ty)
        .expect("ValType::ALL is exhaustive");
    out.push(idx as u8);
}

fn put_valtypes(out: &mut Vec<u8>, types: &[ValType]) {
    put_u32(out, types.len() as u32);
    for &t in types {
        put_valtype(out, t);
    }
}

fn block_kind_tag(kind: BlockKind) -> u8 {
    match kind {
        BlockKind::Function => 0,
        BlockKind::Block => 1,
        BlockKind::Loop => 2,
        BlockKind::If => 3,
        BlockKind::Else => 4,
    }
}

fn put_hook(out: &mut Vec<u8>, hook: &LowLevelHook) {
    use LowLevelHook::*;
    match hook {
        Start => out.push(0),
        Nop => out.push(1),
        Unreachable => out.push(2),
        If => out.push(3),
        Br => out.push(4),
        BrIf => out.push(5),
        BrTable => out.push(6),
        Begin(kind) => {
            out.push(7);
            out.push(block_kind_tag(*kind));
        }
        End(kind) => {
            out.push(8);
            out.push(block_kind_tag(*kind));
        }
        MemorySize => out.push(9),
        MemoryGrow => out.push(10),
        Const(ty) => {
            out.push(11);
            put_valtype(out, *ty);
        }
        Drop(ty) => {
            out.push(12);
            put_valtype(out, *ty);
        }
        Select(ty) => {
            out.push(13);
            put_valtype(out, *ty);
        }
        Unary(op) => {
            out.push(14);
            out.push(op.opcode());
        }
        Binary(op) => {
            out.push(15);
            out.push(op.opcode());
        }
        Load(op) => {
            out.push(16);
            out.push(op.opcode());
        }
        Store(op) => {
            out.push(17);
            out.push(op.opcode());
        }
        Local(op, ty) => {
            out.push(18);
            out.push(match op {
                LocalOp::Get => 0,
                LocalOp::Set => 1,
                LocalOp::Tee => 2,
            });
            put_valtype(out, *ty);
        }
        Global(op, ty) => {
            out.push(19);
            out.push(match op {
                GlobalOp::Get => 0,
                GlobalOp::Set => 1,
            });
            put_valtype(out, *ty);
        }
        Return(types) => {
            out.push(20);
            put_valtypes(out, types);
        }
        CallPre { args, indirect } => {
            out.push(21);
            out.push(u8::from(*indirect));
            put_valtypes(out, args);
        }
        CallPost(types) => {
            out.push(22);
            put_valtypes(out, types);
        }
    }
}

fn put_location(out: &mut Vec<u8>, loc: Location) {
    put_u32(out, loc.func);
    put_u32(out, loc.instr as u32);
}

fn put_end_info(out: &mut Vec<u8>, end: &EndInfo) {
    out.push(block_kind_tag(end.kind));
    put_location(out, end.begin);
    put_location(out, end.end);
}

fn put_br_table_entry(out: &mut Vec<u8>, entry: &BrTableEntry) {
    put_u32(out, entry.target.label);
    put_location(out, entry.target.location);
    put_u32(out, entry.ends.len() as u32);
    for end in &entry.ends {
        put_end_info(out, end);
    }
}

fn put_br_table_info(out: &mut Vec<u8>, info: &BrTableInfo) {
    put_location(out, info.location);
    put_u32(out, info.entries.len() as u32);
    for entry in &info.entries {
        put_br_table_entry(out, entry);
    }
    put_br_table_entry(out, &info.default);
}

// ---- Info-section decoding --------------------------------------------

/// Bounds-checked cursor over untrusted bytes: every read either yields a
/// value or `None`, never panics.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let slice = self.bytes.get(self.pos..self.pos.checked_add(n)?)?;
        self.pos += n;
        Some(slice)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|s| u32::from_le_bytes(s.try_into().unwrap()))
    }

    /// A length prefix, rejected when it exceeds the remaining bytes.
    fn len(&mut self) -> Option<usize> {
        let len = self.u32()? as usize;
        (len <= self.remaining()).then_some(len)
    }

    fn str(&mut self) -> Option<String> {
        let len = self.len()?;
        String::from_utf8(self.take(len)?.to_vec()).ok()
    }

    fn valtype(&mut self) -> Option<ValType> {
        ValType::ALL.get(self.u8()? as usize).copied()
    }

    fn valtypes(&mut self) -> Option<Vec<ValType>> {
        (0..self.len()?).map(|_| self.valtype()).collect()
    }

    fn block_kind(&mut self) -> Option<BlockKind> {
        Some(match self.u8()? {
            0 => BlockKind::Function,
            1 => BlockKind::Block,
            2 => BlockKind::Loop,
            3 => BlockKind::If,
            4 => BlockKind::Else,
            _ => return None,
        })
    }

    fn hook(&mut self) -> Option<LowLevelHook> {
        use LowLevelHook::*;
        Some(match self.u8()? {
            0 => Start,
            1 => Nop,
            2 => Unreachable,
            3 => If,
            4 => Br,
            5 => BrIf,
            6 => BrTable,
            7 => Begin(self.block_kind()?),
            8 => End(self.block_kind()?),
            9 => MemorySize,
            10 => MemoryGrow,
            11 => Const(self.valtype()?),
            12 => Drop(self.valtype()?),
            13 => Select(self.valtype()?),
            14 => Unary(UnaryOp::from_opcode(self.u8()?)?),
            15 => Binary(BinaryOp::from_opcode(self.u8()?)?),
            16 => Load(LoadOp::from_opcode(self.u8()?)?),
            17 => Store(StoreOp::from_opcode(self.u8()?)?),
            18 => {
                let op = match self.u8()? {
                    0 => LocalOp::Get,
                    1 => LocalOp::Set,
                    2 => LocalOp::Tee,
                    _ => return None,
                };
                Local(op, self.valtype()?)
            }
            19 => {
                let op = match self.u8()? {
                    0 => GlobalOp::Get,
                    1 => GlobalOp::Set,
                    _ => return None,
                };
                Global(op, self.valtype()?)
            }
            20 => Return(self.valtypes()?),
            21 => {
                let indirect = match self.u8()? {
                    0 => false,
                    1 => true,
                    _ => return None,
                };
                CallPre {
                    args: self.valtypes()?,
                    indirect,
                }
            }
            22 => CallPost(self.valtypes()?),
            _ => return None,
        })
    }

    fn location(&mut self) -> Option<Location> {
        Some(Location {
            func: self.u32()?,
            instr: self.u32()? as i32,
        })
    }

    fn end_info(&mut self) -> Option<EndInfo> {
        Some(EndInfo {
            kind: self.block_kind()?,
            begin: self.location()?,
            end: self.location()?,
        })
    }

    fn br_table_entry(&mut self) -> Option<BrTableEntry> {
        Some(BrTableEntry {
            target: BranchTarget {
                label: self.u32()?,
                location: self.location()?,
            },
            ends: (0..self.len()?)
                .map(|_| self.end_info())
                .collect::<Option<_>>()?,
        })
    }

    fn br_table_info(&mut self) -> Option<BrTableInfo> {
        Some(BrTableInfo {
            location: self.location()?,
            entries: (0..self.len()?)
                .map(|_| self.br_table_entry())
                .collect::<Option<_>>()?,
            default: self.br_table_entry()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::Hook;
    use crate::instrument::Instrumenter;
    use wasabi_wasm::builder::ModuleBuilder;

    fn sample_module() -> Arc<Module> {
        let mut builder = ModuleBuilder::new();
        builder.memory(1, None);
        builder.function("f", &[ValType::I32], &[ValType::I32], |f| {
            f.block(None).block(None);
            f.get_local(0u32).br_table(vec![0], 1);
            f.end().end();
            f.get_local(0u32).i32_const(1).i32_add();
            f.i32_const(0).load(wasabi_wasm::LoadOp::I32Load, 0);
            f.i32_add();
        });
        builder.function("g", &[], &[ValType::I64], |f| {
            f.i64_const(7);
        });
        Arc::new(builder.finish())
    }

    fn build(module: &Arc<Module>, hooks: HookSet) -> AnalysisSession {
        let (translated, info) = Instrumenter::new(hooks)
            .run_direct(Arc::clone(module))
            .expect("builds");
        AnalysisSession::from_direct(translated, info)
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("wasabi-diskcache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Round trip: a stored session loads back with identical translated
    /// code and identical static info.
    #[test]
    fn roundtrips_a_prepared_session() {
        let dir = tempdir("roundtrip");
        let cache = DiskCache::new(&dir).expect("creates dir");
        let module = sample_module();
        let hooks = HookSet::all();
        let session = build(&module, hooks);
        cache.store("fnv64:0123456789abcdef", hooks, &session);

        let loaded = cache
            .load("fnv64:0123456789abcdef", hooks, &module)
            .expect("loads");
        assert_eq!(
            loaded.translated().code_debug(),
            session.translated().code_debug(),
            "translated code is bit-identical"
        );
        assert_eq!(loaded.info(), session.info());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn absent_entry_is_a_clean_miss() {
        let dir = tempdir("absent");
        let cache = DiskCache::new(&dir).expect("creates dir");
        assert!(cache
            .load("fnv64:0000000000000000", HookSet::all(), &sample_module())
            .is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_file_falls_back_to_rebuild() {
        let dir = tempdir("truncated");
        let cache = DiskCache::new(&dir).expect("creates dir");
        let module = sample_module();
        let hooks = HookSet::all();
        cache.store("k", hooks, &build(&module, hooks));
        let path = cache.entry_path("k", hooks);
        let bytes = std::fs::read(&path).expect("entry exists");
        // Every truncation point, including cutting into the checksum.
        for len in (0..bytes.len()).step_by(7).chain([bytes.len() - 1]) {
            std::fs::write(&path, &bytes[..len]).expect("writes");
            assert!(
                cache.load("k", hooks, &module).is_none(),
                "truncated at {len}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn garbled_bytes_fall_back_to_rebuild() {
        let dir = tempdir("garbled");
        let cache = DiskCache::new(&dir).expect("creates dir");
        let module = sample_module();
        let hooks = HookSet::all();
        cache.store("k", hooks, &build(&module, hooks));
        let path = cache.entry_path("k", hooks);
        let bytes = std::fs::read(&path).expect("entry exists");
        // Flip one byte at a time: the checksum catches every single-byte
        // corruption (FNV-1a is a bijective fold per byte).
        for at in (0..bytes.len()).step_by(11) {
            let mut garbled = bytes.clone();
            garbled[at] ^= 0xff;
            std::fs::write(&path, &garbled).expect("writes");
            assert!(cache.load("k", hooks, &module).is_none(), "garbled at {at}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_format_version_falls_back_to_rebuild() {
        let dir = tempdir("version");
        let cache = DiskCache::new(&dir).expect("creates dir");
        let module = sample_module();
        let hooks = HookSet::all();
        cache.store("k", hooks, &build(&module, hooks));
        let path = cache.entry_path("k", hooks);
        let mut bytes = std::fs::read(&path).expect("entry exists");
        // Bump the version field (bytes 4..8) and re-seal the checksum so
        // ONLY the version check can reject it.
        bytes[4] = bytes[4].wrapping_add(1);
        let payload_len = bytes.len() - 8;
        let checksum = fnv64(&bytes[..payload_len]);
        bytes[payload_len..].copy_from_slice(&checksum.to_le_bytes());
        std::fs::write(&path, &bytes).expect("writes");
        assert!(cache.load("k", hooks, &module).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hook_set_mismatch_falls_back_to_rebuild() {
        let dir = tempdir("hookset");
        let cache = DiskCache::new(&dir).expect("creates dir");
        let module = sample_module();
        let stored = HookSet::of(&[Hook::Load]);
        cache.store("k", stored, &build(&module, stored));
        // Copy the entry over the filename of a DIFFERENT hook set: the
        // content check must reject it even though the file is intact.
        let wanted = HookSet::all();
        std::fs::copy(cache.entry_path("k", stored), cache.entry_path("k", wanted))
            .expect("copies");
        assert!(cache.load("k", wanted, &module).is_none());
        // The original entry still loads fine.
        assert!(cache.load("k", stored, &module).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn module_key_mismatch_falls_back_to_rebuild() {
        let dir = tempdir("key");
        let cache = DiskCache::new(&dir).expect("creates dir");
        let module = sample_module();
        let hooks = HookSet::all();
        cache.store("k1", hooks, &build(&module, hooks));
        std::fs::copy(cache.entry_path("k1", hooks), cache.entry_path("k2", hooks))
            .expect("copies");
        assert!(cache.load("k2", hooks, &module).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_store_is_counted_not_swallowed() {
        let dir = tempdir("write-error");
        let cache = DiskCache::new(&dir).expect("creates dir");
        let module = sample_module();
        let hooks = HookSet::all();
        let session = build(&module, hooks);

        // Make the write fail regardless of privileges (the tests run as
        // root, so permission bits are no obstacle): delete the cache
        // directory out from under the handle — `File::create` of the
        // tmp file has nowhere to go.
        std::fs::remove_dir_all(&dir).expect("removes dir");
        let before = stats::disk_cache_write_errors();
        cache.store("k", hooks, &session);
        assert!(
            stats::disk_cache_write_errors() > before,
            "failed create/write bumps the counter"
        );

        // Same for a failed *rename*: the tmp write succeeds but a
        // directory squats on the entry path.
        let cache = DiskCache::new(&dir).expect("recreates dir");
        std::fs::create_dir_all(cache.entry_path("k", hooks)).expect("squats entry path");
        let before = stats::disk_cache_write_errors();
        cache.store("k", hooks, &session);
        assert!(
            stats::disk_cache_write_errors() > before,
            "failed rename bumps the counter"
        );
        // And the failed store left no tmp debris behind.
        let tmp_left = std::fs::read_dir(&dir)
            .expect("reads dir")
            .flatten()
            .any(|e| {
                e.path()
                    .extension()
                    .and_then(|x| x.to_str())
                    .is_some_and(|x| x.starts_with("tmp"))
            });
        assert!(!tmp_left, "store cleans up its tmp file on failure");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_sweeps_stale_tmp_files() {
        let dir = tempdir("sweep");
        std::fs::create_dir_all(&dir).expect("creates dir");
        // Orphans from a crashed store (any pid), next to a live entry.
        std::fs::write(dir.join("deadbeef-000000ff.tmp12345"), b"orphan").unwrap();
        std::fs::write(dir.join("cafebabe-000000ff.tmp1"), b"orphan").unwrap();
        let keep = dir.join("deadbeef-000000ff.wsbc");
        std::fs::write(&keep, b"entry").unwrap();

        let cache = DiskCache::new(&dir).expect("opens");
        let names: Vec<String> = std::fs::read_dir(cache.dir())
            .expect("reads dir")
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec!["deadbeef-000000ff.wsbc".to_string()]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_faults_degrade_to_miss_and_write_error() {
        let _g = crate::fault::test_lock();
        let dir = tempdir("faults");
        let cache = DiskCache::new(&dir).expect("creates dir");
        let module = sample_module();
        let hooks = HookSet::all();
        let session = build(&module, hooks);
        cache.store("k", hooks, &session);
        assert!(cache.load("k", hooks, &module).is_some());

        // A load fault turns a present entry into a clean miss.
        crate::fault::configure("disk/load=error", 1).unwrap();
        assert!(cache.load("k", hooks, &module).is_none());

        // A store fault is a counted write error; the old entry survives.
        crate::fault::configure("disk/store=error", 1).unwrap();
        let before = stats::disk_cache_write_errors();
        cache.store("k", hooks, &session);
        assert!(stats::disk_cache_write_errors() > before);
        crate::fault::clear();
        assert!(cache.load("k", hooks, &module).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rebuilt_entry_overwrites_a_corrupt_one() {
        let dir = tempdir("overwrite");
        let cache = DiskCache::new(&dir).expect("creates dir");
        let module = sample_module();
        let hooks = HookSet::all();
        let session = build(&module, hooks);
        cache.store("k", hooks, &session);
        let path = cache.entry_path("k", hooks);
        std::fs::write(&path, b"total garbage").expect("writes");
        assert!(cache.load("k", hooks, &module).is_none(), "corrupt entry");
        // The rebuild path: store again over the corrupt file.
        cache.store("k", hooks, &session);
        assert!(
            cache.load("k", hooks, &module).is_some(),
            "rebuilt entry replaced the corrupt one"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
