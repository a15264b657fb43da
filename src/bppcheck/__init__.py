"""Model checker for CTL-without-Until on Basic Parallel Processes.

Reachability-class formulas (EF) are decided exactly through an existential
Presburger encoding; liveness-class formulas (EG) are checked under a k-step
bounded semantics through a linear integer arithmetic encoding. Both are
discharged as SMT-LIB2 scripts: by z3 or another solver command over a
pipe, or by the bundled solver, which runs in the checker's process. Actor
communicating systems are verified by an over-approximating conversion to
the same process model.
"""

__version__ = "0.1.0"
