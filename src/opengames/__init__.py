"""Compositional game solving: lenses, open games, morphisms and a DSL.

The core model: a game is a set of strategies, a play lens per strategy,
and a best-response relation over contexts.  Games compose sequentially,
in parallel and as external choices; composites remember their shape, so
equilibria can be refined cut by cut (separable states).  The `dsl`
module reads `.og` documents and the `og` entry point solves them.
"""

from .classical import (
    ExtensiveGame,
    NormalFormGame,
    SequentialGame,
    TreeNode,
    brute_nash,
    embed_sequential,
    normal_form,
    normalize_extensive,
    oracle_spe,
    sequential_game,
    sequential_nash,
    sequential_spe,
)
from .cells import structure_cell
from .dsl import parse_document
from .errors import (
    BackwardMismatch,
    BoundaryMismatch,
    DocumentTypeError,
    DuplicateElement,
    EmptyChoiceSet,
    EngineError,
    EnumerationBound,
    MalformedInfoSet,
    NameResolutionError,
    NotAState,
    ParseError,
    SourceError,
    TypeMismatch,
)
from .expr import (
    Atom,
    GameExpr,
    Product,
    Seq,
    Tensor,
    eval_expr,
    separable_states_over,
    states_over,
)
from .finite import (
    FiniteSet,
    Payoff,
    Tag,
    TotalFn,
    UNIT,
    UNIT_SET,
    flat_product,
    format_value,
    make_set,
    nested_product,
    tagged_union,
    total_fn,
)
from .games import (
    OpenGame,
    best_response,
    copy_decision,
    copy_decision_composite,
    decision,
    game_states,
    product_games,
    seq_compose,
    tensor_games,
    trivial_game,
    unit_game,
    utility_game,
)
from .lenses import (
    Context,
    Diset,
    Lens,
    UNIT_DISET,
    apply_continuation,
    diset_tensor,
    lens_compose,
    lens_identity,
    lens_tensor,
    lenses_equal,
)
from .morphisms import (
    GameMorphism,
    StateCert,
    check_morphism,
    find_globular_iso,
    hcompose,
    identity_morphism,
    is_state,
    morphism_to_state,
    morphisms_equal,
    state_to_morphism,
    tensor_morphisms,
    vcompose,
)
from .solve import (
    nash_normal_form,
    nash_sequential,
    spe_sequential,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
