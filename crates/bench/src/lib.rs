//! Benchmark harness for the PADS reproduction.
//!
//! One Criterion bench per evaluation artifact of the paper — see
//! DESIGN.md's experiment index and EXPERIMENTS.md for measured results:
//!
//! * `fig10_vetting`, `fig10_selection`, `fig10_count` — the §7 comparison
//!   (PADS vs. hand-written script baselines);
//! * `fig1_sources` — parsing throughput per Figure 1 source class;
//! * `fig_acc_report` — accumulator overhead (§5.2);
//! * `ablation_masks`, `ablation_entrypoints`, `ablation_codegen` — the
//!   design-choice ablations DESIGN.md calls out.
//!
//! None of them gates anything: how fast the system is, end to end and per
//! layer, is `benchmark/run.sh`'s to say (docs/PERFORMANCE.md, "How to
//! measure"). The one binary here, `obs_gate`, times the only thing that
//! harness does not reach — see its header.
