"""Value semigroups and value sets of 1-forms for plane curve branches.

Compute the value semigroup Gamma and the value set Lambda of 1-forms of
a plane branch, recover Gamma from Lambda, enumerate every Lambda
attainable in a fixed topological class, and decide whether a cofinite
set of positive integers is the Lambda of some plane branch.
"""

from .branch import (BranchParametrization, StandardBasisOf,
                     characteristic_sequence, default_precision, nu,
                     semigroup_of, standard_basis_of_ring)
from .decider import Decision, decide
from .errors import (BranchFormsError, DomainError, PrecisionError,
                     ValidationError)
from .forms import (FormEntry, FormValueBasis, OneForm, algorithm1_lambda,
                    differential, eval_form_order, eval_form_orders_multi,
                    minimal_s_processes, pullback_form)
from .poly import Poly, Ring, coordinate_ring
from .semigroup import (CharacteristicSequence, NumericalSemigroup,
                        characteristic_from_semigroup,
                        is_plane_branch_semigroup,
                        semigroup_from_characteristic)
from .series import AbovePrecision, TruncatedSeries
from .strata import (NormalFormFamily, StratificationReport, Stratum,
                     normal_form_family, stratify)
from .valueset import (AperyProfile, ValueSet, apery_profile, apery_set,
                       b_sets, epsilon_eta, from_semigroup, gamma_star_apery,
                       is_covered, recover_gamma)

__version__ = "0.1.0"

__all__ = [
    "AbovePrecision", "AperyProfile", "BranchFormsError",
    "BranchParametrization", "CharacteristicSequence", "Decision",
    "DomainError", "FormEntry", "FormValueBasis", "NormalFormFamily",
    "NumericalSemigroup", "OneForm", "Poly",
    "PrecisionError", "Ring", "StandardBasisOf", "StratificationReport", "Stratum",
    "TruncatedSeries", "ValidationError", "ValueSet", "algorithm1_lambda",
    "apery_profile", "apery_set", "b_sets", "characteristic_from_semigroup",
    "characteristic_sequence", "coordinate_ring", "decide", "default_precision", "differential",
    "epsilon_eta", "eval_form_order", "eval_form_orders_multi",
    "from_semigroup", "gamma_star_apery", "is_covered",
    "is_plane_branch_semigroup", "minimal_s_processes", "normal_form_family",
    "nu", "pullback_form", "recover_gamma", "semigroup_from_characteristic",
    "semigroup_of", "standard_basis_of_ring", "stratify",
]
