//! Expected outputs, computed before any timing by code the daemon does not
//! run.
//!
//! A job's results come from the `Reference` structured-walk interpreter on
//! the uninstrumented module. Its reports come from the same analyses on
//! the rewrite-path instrumented module (paper §2.4), again under
//! `Reference`: the independent leg of `tests/instrumented_differential.rs`.
//! The daemon builds sessions with the direct-emit path and runs them on
//! the flat interpreter, so a fault in either shows as a mismatch.

use std::collections::hash_map::{Entry, HashMap};

use wasabi::hooks::{Analysis, Hook, HookSet};
use wasabi::{instrument, WasabiHost};
use wasabi_analyses::registry;
use wasabi_server::JobResult;
use wasabi_vm::{EmptyHost, Instance, Reference, TranslatedModule};
use wasabi_wasm::module::Module;

use crate::workload::{Inputs, Job};

/// What one job must return.
#[derive(Debug, Clone)]
struct Expected {
    /// Result values, rendered as the daemon renders them (`{:?}`).
    results: Vec<String>,
    /// One report per analysis, in the job's analysis order, as JSON text.
    reports: Vec<String>,
}

/// The expected output of every distinct job a run sends.
#[derive(Debug)]
pub struct Oracle {
    expected: HashMap<(usize, &'static [&'static str]), Expected>,
}

impl Oracle {
    /// Compute the expected output of every job in `inputs`.
    ///
    /// # Errors
    ///
    /// If a reference run fails, or the instrumented module returns other
    /// values than the uninstrumented one.
    pub fn new(inputs: &Inputs) -> Result<Oracle, String> {
        let mut expected = HashMap::new();
        for request in inputs.warmup.iter().chain(&inputs.timed) {
            for job in &request.jobs {
                if let Entry::Vacant(slot) = expected.entry((job.program, job.analyses)) {
                    let program = &inputs.programs[job.program];
                    let value = compute(&program.module, job.analyses)
                        .map_err(|e| format!("reference for {}: {e}", program.name))?;
                    slot.insert(value);
                }
            }
        }
        Ok(Oracle { expected })
    }

    /// Check one result frame of `job` against its reference.
    ///
    /// # Errors
    ///
    /// A message naming what differs.
    pub fn check(&self, job: &Job, result: &JobResult) -> Result<(), String> {
        let expected = &self.expected[&(job.program, job.analyses)];
        match &result.results {
            Ok(values) if *values == expected.results => {}
            Ok(values) => {
                return Err(format!(
                    "job {}: results {values:?}, reference {:?}",
                    result.job, expected.results
                ))
            }
            Err(message) => return Err(format!("job {} failed: {message}", result.job)),
        }
        let reports: Vec<String> = result.reports.iter().map(|r| r.to_json()).collect();
        if reports != expected.reports {
            return Err(format!(
                "job {}: reports differ from the reference run",
                result.job
            ));
        }
        Ok(())
    }
}

fn compute(module: &Module, names: &[&str]) -> Result<Expected, String> {
    let translated = TranslatedModule::new(module.clone()).map_err(|e| e.to_string())?;
    let mut host = EmptyHost;
    let mut instance =
        Instance::instantiate_translated(&translated, &mut host).map_err(|e| e.to_string())?;
    let values = Reference::new(module)
        .invoke_export(&mut instance, "main", &[], &mut host)
        .map_err(|e| e.to_string())?;

    let mut analyses = names
        .iter()
        .map(|&name| registry::by_name(name).ok_or_else(|| format!("unknown analysis {name}")))
        .collect::<Result<Vec<Box<dyn Analysis>>, String>>()?;
    let hooks = analyses
        .iter()
        .fold(HookSet::empty(), |set, a| set.union(a.hooks()));
    let mut subscribers = vec![Vec::new(); Hook::ALL.len()];
    for (index, analysis) in analyses.iter().enumerate() {
        for hook in analysis.hooks().iter() {
            subscribers[hook as usize].push(index);
        }
    }
    let (instrumented, info) = instrument(module, hooks).map_err(|e| e.to_string())?;
    let translated = TranslatedModule::new_without_host_intrinsics(instrumented.clone())
        .map_err(|e| e.to_string())?;
    let instrumented_values = {
        let mut sinks: Vec<&mut dyn Analysis> =
            analyses.iter_mut().map(|a| a.as_mut() as _).collect();
        let mut host = WasabiHost::fused(&info, &mut sinks, &subscribers);
        let mut instance =
            Instance::instantiate_translated(&translated, &mut host).map_err(|e| e.to_string())?;
        Reference::new(&instrumented)
            .invoke_export(&mut instance, "main", &[], &mut host)
            .map_err(|e| e.to_string())?
    };
    if instrumented_values != values {
        return Err(format!(
            "instrumented module returned {instrumented_values:?}, uninstrumented {values:?}"
        ));
    }
    Ok(Expected {
        results: values.iter().map(|v| format!("{v:?}")).collect(),
        reports: analyses.iter().map(|a| a.report().to_json()).collect(),
    })
}
