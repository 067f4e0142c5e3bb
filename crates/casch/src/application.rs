//! The applications the pipeline can "parallelize": the paper's three
//! real workloads plus the §5.2 synthetic random DAGs.

use fastsched_dag::Dag;
use fastsched_workloads::{
    cholesky_dag, fft_dag, gaussian_elimination_dag, laplace_dag, random_layered_dag,
    systolic_matmul_dag, RandomDagConfig, TimingDatabase,
};
use std::fmt;

/// A program the CASCH-substitute can turn into a task graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Application {
    /// Gaussian elimination on an `n × n` matrix.
    Gaussian {
        /// Matrix dimension.
        n: usize,
    },
    /// Laplace equation solver on an `n × n` grid.
    Laplace {
        /// Grid dimension.
        n: usize,
    },
    /// FFT on `points` input points (power of two).
    Fft {
        /// Number of points.
        points: usize,
    },
    /// Random layered DAG per §5.2 (paper density, ~35 edges/node).
    Random {
        /// Number of nodes.
        nodes: usize,
        /// Generator seed.
        seed: u64,
    },
    /// Random layered DAG, sparse variant (2–4 successors per node).
    RandomSparse {
        /// Number of nodes.
        nodes: usize,
        /// Generator seed.
        seed: u64,
    },
    /// Tiled Cholesky factorization on an `n × n` tile matrix.
    Cholesky {
        /// Tile-matrix dimension.
        n: usize,
    },
    /// Systolic matrix-multiply wave on an `n × n` grid.
    Systolic {
        /// Grid dimension.
        n: usize,
    },
}

impl Application {
    /// Generate the weighted task graph via the timing database.
    pub fn generate(&self, db: &TimingDatabase) -> Dag {
        match *self {
            Application::Gaussian { n } => gaussian_elimination_dag(n, db),
            Application::Laplace { n } => laplace_dag(n, db),
            Application::Fft { points } => fft_dag(points, db),
            Application::Random { nodes, seed } => {
                random_layered_dag(&RandomDagConfig::paper(nodes, db), seed)
            }
            Application::RandomSparse { nodes, seed } => {
                random_layered_dag(&RandomDagConfig::sparse(nodes, db), seed)
            }
            Application::Cholesky { n } => cholesky_dag(n, db),
            Application::Systolic { n } => systolic_matmul_dag(n, db),
        }
    }

    /// Parse `name` + `size` as the CLI does: `gauss`, `laplace`,
    /// `fft`, `random`, `random-sparse`.
    pub fn from_cli(name: &str, size: usize, seed: u64) -> Option<Self> {
        match name {
            "gauss" | "gaussian" => Some(Application::Gaussian { n: size }),
            "laplace" => Some(Application::Laplace { n: size }),
            "fft" => Some(Application::Fft { points: size }),
            "random" => Some(Application::Random { nodes: size, seed }),
            "random-sparse" => Some(Application::RandomSparse { nodes: size, seed }),
            "cholesky" => Some(Application::Cholesky { n: size }),
            "systolic" => Some(Application::Systolic { n: size }),
            _ => None,
        }
    }
}

impl fmt::Display for Application {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Application::Gaussian { n } => write!(f, "gauss(N={n})"),
            Application::Laplace { n } => write!(f, "laplace(N={n})"),
            Application::Fft { points } => write!(f, "fft({points} pts)"),
            Application::Random { nodes, seed } => write!(f, "random(v={nodes}, seed={seed})"),
            Application::RandomSparse { nodes, seed } => {
                write!(f, "random-sparse(v={nodes}, seed={seed})")
            }
            Application::Cholesky { n } => write!(f, "cholesky(t={n})"),
            Application::Systolic { n } => write!(f, "systolic(N={n})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_each_application() {
        let db = TimingDatabase::paragon();
        assert_eq!(
            Application::Gaussian { n: 4 }.generate(&db).node_count(),
            20
        );
        assert_eq!(Application::Laplace { n: 4 }.generate(&db).node_count(), 18);
        assert_eq!(
            Application::Fft { points: 16 }.generate(&db).node_count(),
            14
        );
        assert_eq!(
            Application::Random { nodes: 50, seed: 1 }
                .generate(&db)
                .node_count(),
            50
        );
    }

    #[test]
    fn generates_linalg_applications() {
        let db = TimingDatabase::paragon();
        assert_eq!(
            Application::Cholesky { n: 4 }.generate(&db).node_count(),
            20
        );
        let sys = Application::Systolic { n: 4 }.generate(&db);
        assert_eq!(sys.node_count(), 18);
    }

    #[test]
    fn cli_parsing() {
        assert_eq!(
            Application::from_cli("gauss", 8, 0),
            Some(Application::Gaussian { n: 8 })
        );
        assert_eq!(
            Application::from_cli("random", 100, 7),
            Some(Application::Random {
                nodes: 100,
                seed: 7
            })
        );
        assert_eq!(Application::from_cli("nope", 8, 0), None);
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(Application::Fft { points: 64 }.to_string(), "fft(64 pts)");
    }
}
