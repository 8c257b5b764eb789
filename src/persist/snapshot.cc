#include "persist/snapshot.h"

#include <algorithm>

#include "persist/wal.h"
#include "sql/binder.h"
#include "sql/parser.h"

namespace dvs {
namespace persist {

namespace {

constexpr uint8_t kCkptImageRecord = 1;
constexpr uint8_t kCkptEndRecord = 2;

}  // namespace

// Known limitation: partitions are serialized per table, so zero-copy
// clones (§3.4) checkpoint their shared partitions once per clone and
// recover as independent copies — checkpoint bytes and recovered resident
// memory scale with clone count, not unique partitions. Deduplicating
// requires a checkpoint-level partition pool keyed across clone chains
// (partition ids are table-local); noted in ROADMAP "Durability
// architecture" as future work.
TableImage CaptureTable(const VersionedTable& table) {
  TableImage img;
  img.schema = table.schema();
  img.max_partition_rows = table.max_partition_rows();
  img.first_version = table.first_version();
  img.versions = table.all_versions();
  // Deltas are not part of the image; Restore rebuilds them.
  for (TableVersion& v : img.versions) v.delta.reset();
  img.partitions.reserve(table.all_partitions().size());
  for (const auto& [pid, part] : table.all_partitions()) {
    (void)pid;
    img.partitions.push_back(*part);
  }
  std::sort(img.partitions.begin(), img.partitions.end(),
            [](const MicroPartition& a, const MicroPartition& b) {
              return a.id < b.id;
            });
  img.next_partition_id = table.next_partition_id();
  img.next_row_id = table.next_row_id();
  return img;
}

void EncodeTableImage(Encoder* e, const TableImage& t) {
  e->EncodeSchema(t.schema);
  e->U64(t.max_partition_rows);
  e->U64(t.first_version);
  e->U32(static_cast<uint32_t>(t.versions.size()));
  for (const TableVersion& v : t.versions) e->EncodeTableVersion(v);
  e->U32(static_cast<uint32_t>(t.partitions.size()));
  // A view encodes as its selected rows, exactly like the materialized
  // partition it decodes into.
  for (const MicroPartition& p : t.partitions) {
    e->U64(p.id);
    e->U32(static_cast<uint32_t>(p.size()));
    p.ForEach([&](const IdRow& r) { e->EncodeIdRow(r); });
  }
  e->U64(t.next_partition_id);
  e->U64(t.next_row_id);
}

TableImage DecodeTableImage(Decoder* d) {
  TableImage t;
  t.schema = d->DecodeSchema();
  t.max_partition_rows = d->U64();
  t.first_version = d->U64();
  uint32_t nv = d->U32();
  for (uint32_t i = 0; i < nv && d->ok(); ++i) {
    t.versions.push_back(d->DecodeTableVersion());
  }
  uint32_t np = d->U32();
  for (uint32_t i = 0; i < np && d->ok(); ++i) {
    MicroPartition p;
    p.id = d->U64();
    p.payload = std::make_shared<const std::vector<IdRow>>(d->DecodeIdRows());
    t.partitions.push_back(std::move(p));
  }
  t.next_partition_id = d->U64();
  t.next_row_id = d->U64();
  return t;
}

namespace {

DtImage CaptureDt(const DynamicTableMeta& meta) {
  DtImage img;
  img.def = meta.def;
  img.incremental = meta.incremental;
  img.state = static_cast<uint8_t>(meta.state);
  img.consecutive_failures = meta.consecutive_failures;
  img.transient_failures = meta.transient_failures;
  img.initialized = meta.initialized;
  img.data_timestamp = meta.data_timestamp;
  img.refresh_versions.assign(meta.refresh_versions.begin(),
                              meta.refresh_versions.end());
  img.frontier.assign(meta.frontier.begin(), meta.frontier.end());
  std::sort(img.frontier.begin(), img.frontier.end());
  img.dependencies = meta.dependencies;
  img.needs_reinit = meta.needs_reinit;
  return img;
}

void EncodeDtImage(Encoder* e, const DtImage& dt) {
  EncodeDtDefInto(e, dt.def);
  e->Bool(dt.incremental);
  e->U8(dt.state);
  e->I32(dt.consecutive_failures);
  e->I32(dt.transient_failures);
  e->Bool(dt.initialized);
  e->I64(dt.data_timestamp);
  e->U32(static_cast<uint32_t>(dt.refresh_versions.size()));
  for (const auto& [ts, v] : dt.refresh_versions) {
    e->I64(ts);
    e->U64(v);
  }
  e->U32(static_cast<uint32_t>(dt.frontier.size()));
  for (const auto& [src, v] : dt.frontier) {
    e->U64(src);
    e->U64(v);
  }
  EncodeDepsInto(e, dt.dependencies);
  e->Bool(dt.needs_reinit);
}

DtImage DecodeDtImage(Decoder* d) {
  DtImage dt;
  dt.def = DecodeDtDefFrom(d);
  dt.incremental = d->Bool();
  dt.state = d->U8();
  dt.consecutive_failures = d->I32();
  dt.transient_failures = d->I32();
  dt.initialized = d->Bool();
  dt.data_timestamp = d->I64();
  uint32_t nr = d->U32();
  for (uint32_t i = 0; i < nr && d->ok(); ++i) {
    Micros ts = d->I64();
    VersionId v = d->U64();
    dt.refresh_versions.emplace_back(ts, v);
  }
  uint32_t nf = d->U32();
  for (uint32_t i = 0; i < nf && d->ok(); ++i) {
    ObjectId src = d->U64();
    VersionId v = d->U64();
    dt.frontier.emplace_back(src, v);
  }
  dt.dependencies = DecodeDepsFrom(d);
  dt.needs_reinit = d->Bool();
  return dt;
}

void EncodeObjectImage(Encoder* e, const ObjectImage& o) {
  e->U64(o.id);
  e->Str(o.name);
  e->U8(o.kind);
  e->Bool(o.dropped);
  e->I64(o.min_data_retention);
  e->Bool(o.has_storage);
  if (o.has_storage) EncodeTableImage(e, o.storage);
  e->Str(o.view_sql);
  e->Bool(o.has_dt);
  if (o.has_dt) EncodeDtImage(e, o.dt);
}

ObjectImage DecodeObjectImage(Decoder* d) {
  ObjectImage o;
  o.id = d->U64();
  o.name = d->Str();
  o.kind = d->U8();
  o.dropped = d->Bool();
  o.min_data_retention = d->I64();
  o.has_storage = d->Bool();
  if (o.has_storage) o.storage = DecodeTableImage(d);
  o.view_sql = d->Str();
  o.has_dt = d->Bool();
  if (o.has_dt) o.dt = DecodeDtImage(d);
  return o;
}

/// Binds `sql` against the (partially restored) catalog. Returns nullptr on
/// failure — which live systems can reach too (e.g. a view over a table
/// dropped later); execution paths guard against null plans.
PlanPtr TryBind(Catalog& catalog, const std::string& sql) {
  auto select = sql::ParseSelect(sql);
  if (!select.ok()) return nullptr;
  sql::Binder binder(catalog);
  auto bound = binder.BindSelect(*select.value());
  if (!bound.ok()) return nullptr;
  return bound.value().plan;
}

}  // namespace

SystemImage CaptureSystemImage(DvsEngine& engine,
                               const SchedulerPersistState* sched) {
  SystemImage img;
  img.hlc_last = engine.txn().LastCommitTimestamp();
  img.clock_now = engine.clock().Now();

  Catalog& catalog = engine.catalog();
  for (size_t i = 0; i < catalog.object_count(); ++i) {
    const CatalogObject* obj = catalog.ObjectAt(i);
    ObjectImage o;
    o.id = obj->id;
    o.name = obj->name;
    o.kind = static_cast<uint8_t>(obj->kind);
    o.dropped = obj->dropped;
    o.min_data_retention = obj->min_data_retention;
    if (obj->storage != nullptr) {
      o.has_storage = true;
      o.storage = CaptureTable(*obj->storage);
    }
    o.view_sql = obj->view_sql;
    if (obj->dt != nullptr) {
      o.has_dt = true;
      o.dt = CaptureDt(*obj->dt);
    }
    img.objects.push_back(std::move(o));
  }

  img.ddl_log = catalog.ddl_log();
  for (const auto& [key, privs] : catalog.grants()) {
    GrantImage g;
    g.object = key.first;
    g.role = key.second;
    for (Privilege p : privs) g.privileges.push_back(static_cast<uint8_t>(p));
    img.grants.push_back(std::move(g));
  }
  for (const auto& [name, wh] : engine.warehouses().all()) {
    WarehouseImage w;
    w.name = name;
    w.size = wh->size();
    w.concurrency = wh->concurrency();
    w.concurrency_pinned = wh->concurrency_pinned();
    w.auto_suspend = wh->auto_suspend();
    w.busy_until = wh->busy_until();
    w.billed = wh->billed();
    w.resumes = wh->resumes();
    img.warehouses.push_back(std::move(w));
  }
  if (sched != nullptr) {
    img.has_sched = true;
    img.sched = *sched;
  }
  return img;
}

std::string EncodeSystemImage(const SystemImage& image) {
  Encoder e;
  e.Hlc(image.hlc_last);
  e.I64(image.clock_now);
  e.U32(static_cast<uint32_t>(image.objects.size()));
  for (const ObjectImage& o : image.objects) EncodeObjectImage(&e, o);
  e.U32(static_cast<uint32_t>(image.ddl_log.size()));
  for (const DdlEvent& ev : image.ddl_log) {
    e.U64(ev.seq);
    e.Hlc(ev.ts);
    e.Str(ev.op);
    e.Str(ev.object_name);
    e.U64(ev.object_id);
  }
  e.U32(static_cast<uint32_t>(image.grants.size()));
  for (const GrantImage& g : image.grants) {
    e.U64(g.object);
    e.Str(g.role);
    e.U32(static_cast<uint32_t>(g.privileges.size()));
    for (uint8_t p : g.privileges) e.U8(p);
  }
  e.U32(static_cast<uint32_t>(image.warehouses.size()));
  for (const WarehouseImage& w : image.warehouses) {
    e.Str(w.name);
    e.I32(w.size);
    e.I32(w.concurrency);
    e.Bool(w.concurrency_pinned);
    e.I64(w.auto_suspend);
    e.I64(w.busy_until);
    e.I64(w.billed);
    e.I32(w.resumes);
  }
  e.Bool(image.has_sched);
  if (image.has_sched) {
    e.U32(static_cast<uint32_t>(image.sched.log.size()));
    for (const RefreshRecord& r : image.sched.log) {
      EncodeRefreshRecordInto(&e, r);
    }
    e.I64(image.sched.last_run);
  }
  return e.Take();
}

Result<SystemImage> DecodeSystemImage(std::string_view data) {
  Decoder d(data);
  SystemImage img;
  img.hlc_last = d.Hlc();
  img.clock_now = d.I64();
  uint32_t nobj = d.U32();
  for (uint32_t i = 0; i < nobj && d.ok(); ++i) {
    img.objects.push_back(DecodeObjectImage(&d));
  }
  uint32_t nddl = d.U32();
  for (uint32_t i = 0; i < nddl && d.ok(); ++i) {
    DdlEvent ev;
    ev.seq = d.U64();
    ev.ts = d.Hlc();
    ev.op = d.Str();
    ev.object_name = d.Str();
    ev.object_id = d.U64();
    img.ddl_log.push_back(std::move(ev));
  }
  uint32_t ngrants = d.U32();
  for (uint32_t i = 0; i < ngrants && d.ok(); ++i) {
    GrantImage g;
    g.object = d.U64();
    g.role = d.Str();
    uint32_t np = d.U32();
    for (uint32_t j = 0; j < np && d.ok(); ++j) g.privileges.push_back(d.U8());
    img.grants.push_back(std::move(g));
  }
  uint32_t nwh = d.U32();
  for (uint32_t i = 0; i < nwh && d.ok(); ++i) {
    WarehouseImage w;
    w.name = d.Str();
    w.size = d.I32();
    w.concurrency = d.I32();
    w.concurrency_pinned = d.Bool();
    w.auto_suspend = d.I64();
    w.busy_until = d.I64();
    w.billed = d.I64();
    w.resumes = d.I32();
    img.warehouses.push_back(std::move(w));
  }
  img.has_sched = d.Bool();
  if (img.has_sched) {
    uint32_t nlog = d.U32();
    for (uint32_t i = 0; i < nlog && d.ok(); ++i) {
      img.sched.log.push_back(DecodeRefreshRecordFrom(&d));
    }
    img.sched.last_run = d.I64();
  }
  if (!d.done()) return Corruption("malformed system image");
  return img;
}

Status InstallSystemImage(const SystemImage& image, DvsEngine* engine,
                          SchedulerPersistState* sched_out) {
  Catalog& catalog = engine->catalog();
  if (catalog.object_count() != 0) {
    return FailedPrecondition("InstallSystemImage requires a fresh engine");
  }
  for (const ObjectImage& o : image.objects) {
    auto obj = std::make_unique<CatalogObject>();
    obj->id = o.id;
    obj->name = o.name;
    obj->kind = static_cast<ObjectKind>(o.kind);
    obj->dropped = o.dropped;
    obj->min_data_retention = o.min_data_retention;
    if (o.has_storage) {
      obj->storage = VersionedTable::Restore(
          o.storage.schema, o.storage.max_partition_rows,
          o.storage.first_version, o.storage.versions, o.storage.partitions,
          o.storage.next_partition_id, o.storage.next_row_id);
    }
    if (!o.view_sql.empty()) {
      obj->view_sql = o.view_sql;
      obj->view_plan = TryBind(catalog, o.view_sql);
    }
    if (o.has_dt) {
      obj->dt = std::make_unique<DynamicTableMeta>();
      DynamicTableMeta* meta = obj->dt.get();
      meta->def = o.dt.def;
      meta->incremental = o.dt.incremental;
      meta->state = static_cast<DtState>(o.dt.state);
      meta->consecutive_failures = o.dt.consecutive_failures;
      meta->transient_failures = o.dt.transient_failures;
      meta->initialized = o.dt.initialized;
      meta->data_timestamp = o.dt.data_timestamp;
      for (const auto& [ts, v] : o.dt.refresh_versions) {
        meta->refresh_versions.emplace(ts, v);
      }
      for (const auto& [src, v] : o.dt.frontier) {
        meta->frontier.emplace(src, v);
      }
      // Plan from a fresh bind, dependencies from the record: if an
      // upstream was replaced since the DT last rebound, the recorded
      // dependency ids disagree with the current catalog and the next
      // refresh REINITIALIZEs — the same §5.4 path the live system takes.
      meta->plan = TryBind(catalog, o.dt.def.sql);
      meta->dependencies = o.dt.dependencies;
      meta->needs_reinit = o.dt.needs_reinit;
    }
    DVS_RETURN_IF_ERROR(catalog.RestoreObject(std::move(obj)));
  }
  catalog.RestoreDdlLog(image.ddl_log);
  for (const GrantImage& g : image.grants) {
    for (uint8_t p : g.privileges) {
      catalog.Grant(g.object, g.role, static_cast<Privilege>(p));
    }
  }
  for (const WarehouseImage& w : image.warehouses) {
    Warehouse* wh =
        engine->warehouses().GetOrCreate(w.name, w.size, w.auto_suspend);
    wh->Resize(w.size);
    if (w.concurrency_pinned) wh->set_concurrency(w.concurrency);
    wh->RestoreBilling(w.busy_until, w.billed, w.resumes);
  }
  engine->txn().ObserveCommitTimestamp(image.hlc_last);
  if (sched_out != nullptr && image.has_sched) {
    *sched_out = image.sched;
  }
  return OkStatus();
}

Status WriteCheckpointFile(const std::string& path, uint64_t seq,
                           const SystemImage& image, uint64_t* bytes_out) {
  RecordFileWriter writer;
  DVS_RETURN_IF_ERROR(writer.Open(path, kCheckpointMagic, seq));
  DVS_RETURN_IF_ERROR(
      writer.Append(kCkptImageRecord, EncodeSystemImage(image)));
  DVS_RETURN_IF_ERROR(writer.Append(kCkptEndRecord, ""));
  if (bytes_out != nullptr) *bytes_out = writer.bytes_written();
  return OkStatus();
}

Result<SystemImage> ReadCheckpointFile(const std::string& path,
                                       uint64_t* seq_out) {
  DVS_ASSIGN_OR_RETURN(
      RecordFile file,
      ReadRecordFile(path, kCheckpointMagic, /*tolerate_torn_tail=*/false));
  if (file.records.size() != 2 || file.records[0].type != kCkptImageRecord ||
      file.records[1].type != kCkptEndRecord) {
    return Corruption("checkpoint '" + path + "' is incomplete");
  }
  if (seq_out != nullptr) *seq_out = file.seq;
  return DecodeSystemImage(file.records[0].payload);
}

}  // namespace persist
}  // namespace dvs
