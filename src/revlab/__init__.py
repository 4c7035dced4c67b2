"""revlab: belief revision over limited total preorders, with a postulate verifier."""

from .errors import (
    InvariantError,
    NonWeakOrderError,
    ParseError,
    PreconditionError,
    RevlabError,
    ScopeMismatchError,
    TableMissError,
    TooLargeError,
    UnknownAtomError,
)
from .orders import (
    RankedOrder,
    enumerate_orders,
    min_set,
    trichotomy_check,
)
from .prop import (
    Signature,
    models,
    parse,
    parse_models,
)
from .states import (
    EpistemicState,
    StateUniverse,
    check_clf,
    check_fa,
    check_faithful_limited,
    dump_state,
    enumerate_states,
    parse_state,
    sample_states,
)
from .operators import (
    ExtensionalOperator,
    RevisionOperator,
    UpdatePolicy,
    all_policies,
    canonical_assignment,
    dump_operator,
    parse_operator,
    tabulate,
)

__version__ = "0.1.0"
