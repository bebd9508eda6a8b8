//! Fixture server-loop root: calls every registered filter through the
//! `GradientFilter` trait, so the analyzer must fan the dynamic call out
//! to each implementation in the (fixture) workspace.

pub trait GradientFilter {
    fn aggregate_into(&self, out: &mut Vec<f64>);
}

pub fn serve(filters: &mut [Box<dyn GradientFilter>], out: &mut Vec<f64>) {
    for filter in filters.iter() {
        filter.aggregate_into(out);
    }
}
