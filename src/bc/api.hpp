// The consolidated public API: one include for everything a driver binary
// needs.
//
//   #include "bc/api.hpp"
//
//   bcdyn::bc::Session session(graph, {.engine = ..., .runtime = {...}});
//   bcdyn::bc::Service service(graph, options, service_config);
//
// The supported public surface is:
//
//   bc::Session   - the single-caller front door: a DynamicBc plus the
//                   per-thread observability wiring (bc/session.hpp).
//   bc::Service   - the multi-client serving layer: update coalescing,
//                   epoch-versioned snapshot reads, admission control
//                   (bc/service.hpp + bc/snapshot_store.hpp).
//   bc::Options / bc::Runtime - everything configurable, declaratively
//                   (bc/dynamic_bc.hpp; the one options aggregate, batch
//                   and pipeline settings included).
//   UpdateOutcome - the one outcome type for every analytic update.
//   EngineKind / parse_engine_flag / engine_from_string / to_string -
//                   the engine vocabulary and its CLI spelling.
//   PipelineResult - the pipelined ingest result.
//
// DynamicBc (bc/dynamic_bc.hpp) is Session's analytic base and takes the
// same bc::Options: constructing it bare is for engine-internal code and
// tests. New callers go through Session or Service, which own the
// runtime wiring DynamicBc deliberately does not.
#pragma once

#include "bc/batch_update.hpp"
#include "bc/pipeline.hpp"
#include "bc/service.hpp"
#include "bc/session.hpp"
#include "bc/snapshot_store.hpp"
#include "bc/update_outcome.hpp"
