"""Samples and distributions written with point ids, for readable tests."""

from votemargin.core import DataDistribution, LabeledSample


def sample(domain, pairs) -> LabeledSample:
    """The sample of ``(point, label)`` pairs, each point named by its id."""
    pairs = list(pairs)
    return LabeledSample(
        domain, [domain.position(p) for p, _ in pairs], [y for _, y in pairs]
    )


def distribution(domain, masses) -> DataDistribution:
    """The distribution with ``{(point, label): probability}`` atoms, in order."""
    return DataDistribution(sample(domain, masses), list(masses.values()))
