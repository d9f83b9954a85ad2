"""Samples and distributions written as ``(position, label)`` pairs, for readable tests."""

from votemargin.core import DataDistribution, LabeledSample


def sample(domain_size, pairs) -> LabeledSample:
    """The sample of ``(position, label)`` pairs over {0..domain_size−1}."""
    pairs = list(pairs)
    return LabeledSample(domain_size, [x for x, _ in pairs], [y for _, y in pairs])


def distribution(domain_size, masses) -> DataDistribution:
    """The distribution with ``{(position, label): probability}`` atoms, in order."""
    return DataDistribution(sample(domain_size, masses), list(masses.values()))
