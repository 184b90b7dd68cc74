"""Exception hierarchy shared by all rebac modules."""

from __future__ import annotations


class RebacError(Exception):
    """Base class for every error raised by this package."""

    code = "error"


# --- graph ---

class UnknownVertex(RebacError):
    code = "unknown_vertex"


class UnknownRelation(RebacError):
    code = "unknown_relation"


class DuplicateRelation(RebacError):
    code = "duplicate_relation"


class AddExistingEdge(RebacError):
    code = "add_existing_edge"


class DeleteMissingEdge(RebacError):
    code = "delete_missing_edge"


class ReadOnlyRelation(RebacError):
    code = "read_only_relation"


class TransactionRequired(RebacError):
    """A mutation was attempted outside an exclusive write transaction."""

    code = "transaction_required"


class ParseError(RebacError):
    """Malformed textual input (edge-list file or formula text).

    ``location`` is a 1-based line number for file input and a 0-based
    character offset for formula text.
    """

    code = "parse"

    def __init__(self, message: str, location: int | None = None):
        self.location = location
        if location is not None:
            message = f"{message} (at {location})"
        super().__init__(message)


# --- formulas ---

class UnknownVariable(RebacError):
    code = "unknown_variable"


class NotAnchored(RebacError):
    code = "not_anchored"


class ArityMismatch(RebacError):
    code = "arity_mismatch"


# --- policy / engine ---

class PolicyError(RebacError):
    code = "policy"


class EvaluationError(RebacError):
    """A relationship predicate failed to evaluate during a check.

    Tagged with the principal (or admin action) whose formula failed so the
    request can be aborted loudly instead of silently skipping the rule.
    """

    code = "evaluation"

    def __init__(self, subject: str, cause: Exception):
        self.subject = subject
        self.cause = cause
        super().__init__(f"{subject}: {cause}")


# --- admin actions ---

class UnknownAction(RebacError):
    code = "unknown_action"


class NotEnabled(RebacError):
    code = "not_enabled"


class NotApplicable(RebacError):
    code = "not_applicable"


class UnboundParticipant(RebacError):
    code = "unbound_participant"


# --- synth ---

class InfeasibleScale(RebacError):
    """Scaled assignment-pair counts exceed the available cross product."""

    code = "infeasible_scale"
