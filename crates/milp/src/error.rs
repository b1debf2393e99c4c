//! Error type for the MILP solver.

/// Errors returned by [`Model::solve`](crate::Model::solve).
#[derive(Debug, Clone, PartialEq)]
pub enum MilpError {
    /// The problem has no feasible solution.
    Infeasible,
    /// The branch-and-bound node limit was reached before proving optimality
    /// and no incumbent integer solution was found.
    NodeLimit {
        /// The configured node limit.
        limit: usize,
    },
    /// The model is malformed (e.g. empty, or a variable lacks the finite
    /// bound its objective sign needs), or the LP engine failed numerically.
    InvalidModel(String),
}

impl std::fmt::Display for MilpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MilpError::Infeasible => write!(f, "problem is infeasible"),
            MilpError::NodeLimit { limit } => {
                write!(
                    f,
                    "node limit of {limit} reached without an integer solution"
                )
            }
            MilpError::InvalidModel(msg) => write!(f, "invalid model: {msg}"),
        }
    }
}

impl std::error::Error for MilpError {}
