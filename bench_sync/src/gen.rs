//! Seeded workload generator.
//!
//! Every byte the benchmark hands the program comes from
//! [`random_bytes`], keyed by the workload seed plus a label naming the
//! round and file, so the same seed always yields the same corpus and
//! the same per-round changes, and the program only ever sees the
//! generated files.

use unidrive::sim::SimRng;
use unidrive::util::bytes::Bytes;
use unidrive::workload::random_bytes;

const KIB: usize = 1024;
const MIB: usize = 1024 * KIB;

/// The three benchmark workloads (see `README.md` for why each).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Overwrite the same 8 paths with 8 MiB of fresh bytes each round.
    Bulk,
    /// A 1024 × 4 KiB tree; each round rewrites 128 files, rotating.
    Small,
    /// 4 × 16 MiB files; each round XORs 4 KiB at a seeded offset of one.
    Edit,
}

/// Sizes of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// Files in the corpus.
    pub files: usize,
    /// Bytes per file.
    pub file_bytes: usize,
    /// Files changed per round.
    pub per_round: usize,
    /// Bytes an `edit` round flips (0: whole files are rewritten).
    pub edit_bytes: usize,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "bulk" => Some(Workload::Bulk),
            "small" => Some(Workload::Small),
            "edit" => Some(Workload::Edit),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Bulk => "bulk",
            Workload::Small => "small",
            Workload::Edit => "edit",
        }
    }

    /// The workload's sizes.
    pub fn shape(self) -> Shape {
        match self {
            Workload::Bulk => Shape {
                files: 8,
                file_bytes: 8 * MIB,
                per_round: 8,
                edit_bytes: 0,
            },
            Workload::Small => Shape {
                files: 1024,
                file_bytes: 4 * KIB,
                per_round: 128,
                edit_bytes: 0,
            },
            Workload::Edit => Shape {
                files: 4,
                file_bytes: 16 * MIB,
                per_round: 1,
                edit_bytes: 4 * KIB,
            },
        }
    }

    /// Folder path of file `i`.
    pub fn path(self, i: usize) -> String {
        match self {
            Workload::Bulk => format!("bulk/file-{i}.bin"),
            Workload::Small => format!("small/d{:02}/f{i:04}.bin", i / 64),
            Workload::Edit => format!("edit/file-{i}.bin"),
        }
    }
}

/// The inputs of one workload under one seed.
#[derive(Debug, Clone, Copy)]
pub struct Generator {
    workload: Workload,
    seed: u64,
}

impl Generator {
    /// A generator for `workload` under `seed`.
    pub fn new(workload: Workload, seed: u64) -> Generator {
        Generator { workload, seed }
    }

    /// The generator of the `index`-th fresh world of a run: its own
    /// corpus and rounds, so a run's numbers average over several
    /// corpora (and their segmentations) instead of resting on one.
    pub fn world(&self, index: usize) -> Generator {
        Generator::new(
            self.workload,
            self.stream(&format!("world/{index}")).next_u64(),
        )
    }

    fn stream(&self, label: &str) -> SimRng {
        SimRng::derive(
            self.seed,
            &format!("bench_sync/{}/{label}", self.workload.name()),
        )
    }

    fn content(&self, label: &str, len: usize) -> Bytes {
        random_bytes(len, self.stream(label).next_u64())
    }

    /// The corpus synced during set-up: every file of the workload.
    pub fn preload(&self) -> Vec<(String, Bytes)> {
        let shape = self.workload.shape();
        (0..shape.files)
            .map(|i| {
                (
                    self.workload.path(i),
                    self.content(&format!("preload/{i}"), shape.file_bytes),
                )
            })
            .collect()
    }

    /// Indices of the files round `round` changes, in ascending order.
    pub fn changed(&self, round: u64) -> Vec<usize> {
        let shape = self.workload.shape();
        match self.workload {
            Workload::Bulk => (0..shape.files).collect(),
            Workload::Small => {
                let start = (round as usize * shape.per_round) % shape.files;
                let mut idx: Vec<usize> = (0..shape.per_round)
                    .map(|j| (start + j) % shape.files)
                    .collect();
                idx.sort_unstable();
                idx
            }
            Workload::Edit => vec![self.edit_site(round).0],
        }
    }

    /// The file and byte offset an `edit` round flips.
    pub fn edit_site(&self, round: u64) -> (usize, usize) {
        let shape = self.workload.shape();
        let file = round as usize % shape.files;
        let span = (shape.file_bytes - shape.edit_bytes + 1) as u64;
        let offset = self.stream(&format!("round/{round}/offset")).below(span) as usize;
        (file, offset)
    }

    /// The new contents of every file round `round` changes, given the
    /// current contents (`current` is read only by `edit`).
    pub fn round(&self, round: u64, current: impl Fn(&str) -> Bytes) -> Vec<(String, Bytes)> {
        let shape = self.workload.shape();
        match self.workload {
            Workload::Bulk | Workload::Small => self
                .changed(round)
                .into_iter()
                .map(|i| {
                    let label = format!("round/{round}/{i}");
                    (
                        self.workload.path(i),
                        self.content(&label, shape.file_bytes),
                    )
                })
                .collect(),
            Workload::Edit => {
                let (file, offset) = self.edit_site(round);
                let path = self.workload.path(file);
                let mut data = current(&path).to_vec();
                let mask = self.content(&format!("round/{round}/mask"), shape.edit_bytes);
                // `| 1` makes every mask byte non-zero, so all 4 KiB flip.
                for (b, m) in data[offset..offset + shape.edit_bytes]
                    .iter_mut()
                    .zip(mask.iter())
                {
                    *b ^= m | 1;
                }
                vec![(path, Bytes::from(data))]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    const ALL: [Workload; 3] = [Workload::Bulk, Workload::Small, Workload::Edit];

    /// Plays `rounds` rounds on the preloaded corpus and returns every
    /// round's changed files.
    fn play(g: &Generator, rounds: u64) -> Vec<Vec<(String, Bytes)>> {
        let mut folder: BTreeMap<String, Bytes> = g.preload().into_iter().collect();
        (0..rounds)
            .map(|r| {
                let changes = g.round(r, |p| folder[p].clone());
                for (p, d) in &changes {
                    folder.insert(p.clone(), d.clone());
                }
                changes
            })
            .collect()
    }

    #[test]
    fn same_seed_gives_same_bytes_and_changed_sets() {
        for w in ALL {
            let (a, b) = (Generator::new(w, 7), Generator::new(w, 7));
            assert_eq!(a.preload(), b.preload(), "{w:?} preload");
            let played = play(&a, 3);
            assert_eq!(played, play(&b, 3), "{w:?} rounds");
            for (r, changes) in played.iter().enumerate() {
                let names: Vec<String> =
                    a.changed(r as u64).into_iter().map(|i| w.path(i)).collect();
                let paths: Vec<String> = changes.iter().map(|(p, _)| p.clone()).collect();
                assert_eq!(names, paths, "{w:?} round {r} changed set");
            }
        }
    }

    #[test]
    fn worlds_of_one_seed_are_fixed_and_distinct() {
        for w in ALL {
            let g = Generator::new(w, 7);
            assert_eq!(
                g.world(1).preload(),
                Generator::new(w, 7).world(1).preload(),
                "{w:?}"
            );
            assert_ne!(g.world(0).preload(), g.world(1).preload(), "{w:?}");
        }
    }

    #[test]
    fn different_seeds_give_different_bytes() {
        for w in ALL {
            let (a, b) = (Generator::new(w, 7), Generator::new(w, 8));
            assert_ne!(a.preload(), b.preload(), "{w:?} preload");
            assert_ne!(play(&a, 2), play(&b, 2), "{w:?} rounds");
        }
    }

    #[test]
    fn every_round_changes_whole_files_of_the_right_size() {
        for w in ALL {
            let g = Generator::new(w, 3);
            let shape = w.shape();
            for (r, changes) in play(&g, 4).iter().enumerate() {
                assert_eq!(changes.len(), shape.per_round, "{w:?} round {r}");
                for (p, d) in changes {
                    assert_eq!(d.len(), shape.file_bytes, "{w:?} {p}");
                }
            }
        }
    }

    #[test]
    fn small_rotation_covers_the_tree_once_per_cycle() {
        let g = Generator::new(Workload::Small, 11);
        let shape = Workload::Small.shape();
        let cycle = (shape.files / shape.per_round) as u64;
        let mut seen = vec![0u32; shape.files];
        for r in 0..cycle {
            let idx = g.changed(r);
            assert_eq!(idx.len(), shape.per_round);
            assert!(idx.windows(2).all(|w| w[0] < w[1]), "sorted and distinct");
            for i in idx {
                assert!(i < shape.files);
                seen[i] += 1;
            }
        }
        assert!(
            seen.iter().all(|&n| n == 1),
            "each file rewritten once per cycle"
        );
        assert_eq!(g.changed(0), g.changed(cycle), "rotation wraps");
    }

    #[test]
    fn edit_offsets_stay_in_range_and_flip_exactly_the_window() {
        let g = Generator::new(Workload::Edit, 5);
        let shape = Workload::Edit.shape();
        let preload: BTreeMap<String, Bytes> = g.preload().into_iter().collect();
        for r in 0..64 {
            let (file, offset) = g.edit_site(r);
            assert!(file < shape.files);
            assert!(
                offset + shape.edit_bytes <= shape.file_bytes,
                "round {r}: {offset}"
            );
        }
        for r in 0..4 {
            let (file, offset) = g.edit_site(r);
            let path = Workload::Edit.path(file);
            let old = &preload[&path];
            let (p, new) = g.round(r, |p| preload[p].clone()).pop().unwrap();
            assert_eq!(p, path);
            for (i, (a, b)) in old.iter().zip(new.iter()).enumerate() {
                let inside = (offset..offset + shape.edit_bytes).contains(&i);
                assert_eq!(a != b, inside, "round {r} byte {i}");
            }
        }
    }
}
