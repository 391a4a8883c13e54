"""Exception types shared across the package."""


class SingularityError(ArithmeticError):
    """Evaluation at a point where the squared amplitude of the wave function vanishes."""


class InfiniteVelocityError(ArithmeticError):
    """Mechanical momentum requested at a turning point, where dt/dx = 0."""
