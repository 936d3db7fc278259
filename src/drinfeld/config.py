"""Run-wide configuration: size caps, search budgets, RNG seeding."""

from dataclasses import dataclass

# A finite quotient group is enumerated element by element, so its order is
# the dominant cost driver.  The default cap keeps interactive calls fast;
# the hard cap is an absolute refusal threshold even when a caller opts in
# to larger groups.
DEFAULT_GROUP_CAP = 100_000
HARD_GROUP_CAP = 1_000_000

# Cap on plain enumerations (subspaces of a quotient ring, candidate sets in
# searches) that are not group closures.
DEFAULT_ENUM_CAP = 2**20

# Largest finite field order the tables support.
MAX_FIELD_ORDER = 16

# Default number of candidates a randomized search may try.
DEFAULT_SEARCH_BUDGET = 200


@dataclass(frozen=True)
class RunConfig:
    """Knobs shared by the long-running computations.

    group_cap: refuse to enumerate a finite group larger than this.
    enum_cap: refuse plain enumerations larger than this.
    search_budget: number of candidates a randomized search may try.
    seed: base seed for every RNG the package creates.
    """

    group_cap: int = DEFAULT_GROUP_CAP
    enum_cap: int = DEFAULT_ENUM_CAP
    search_budget: int = DEFAULT_SEARCH_BUDGET
    seed: int = 0

    def __post_init__(self):
        if self.group_cap > HARD_GROUP_CAP:
            raise ValueError(
                f"group_cap {self.group_cap} exceeds hard limit {HARD_GROUP_CAP}"
            )
        if self.group_cap <= 0 or self.enum_cap <= 0:
            raise ValueError("caps must be positive")
        if self.search_budget < 0 or self.seed < 0:
            raise ValueError("search budget and seed must not be negative")


DEFAULT_CONFIG = RunConfig()
