"""Indoor positioning toolkit: simulation, closed-form solvers, and learned regressors."""
