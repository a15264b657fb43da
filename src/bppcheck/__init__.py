"""Model checker for CTL-without-Until on Basic Parallel Processes.

Reachability-class formulas (EF) are decided exactly through an existential
Presburger encoding; liveness-class formulas (EG) are checked under a k-step
bounded semantics through a linear integer arithmetic encoding. Both are
discharged by an external SMT solver speaking SMT-LIB2 over a pipe. Actor
communicating systems are verified by an over-approximating conversion to
the same process model.
"""

__version__ = "0.1.0"
